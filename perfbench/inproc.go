package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"cic"
)

// runOut is what one timed run produced, before scoring.
type runOut struct {
	written []int64     // stream samples fed, per station
	timed   int64       // samples fed while the run was timed, all stations
	recs    [][]sinkRec // records in delivery order, per station
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64 // bytes allocated (TotalAlloc delta)
	gc      uint32 // GC cycles
	segs    []segMark
	// latencyMs is the air-end → record latency of record r, whose
	// packet's air ended at stream sample end.
	latencyMs func(r sinkRec, end int64) float64

	// Open loop only: the wire station ids, how late each chunk send
	// started, and the (shut down) routed system, for its metrics.
	ids    []string
	lateMs []float64
	rig    *rig
}

// warmup is the untimed lead-in of a closed-loop run.
const warmup = time.Second

// segments is how many equal wall-time slices a run's cost is sampled
// in; the end-to-end rates are slice medians, so a burst of load from
// outside the benchmark moves one slice rather than the whole figure.
const segments = 10

// segMark is a cost snapshot taken while a run is timed.
type segMark struct {
	t     time.Time
	air   int64 // stream samples fed so far, all stations
	cpu   time.Duration
	alloc uint64 // bytes allocated so far (the TotalAlloc count)
}

func markNow(air int64) segMark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return segMark{time.Now(), air, cpuTime(), s[0].Value.Uint64()}
}

// segmentMedians is the median over consecutive marks of the air rate
// (air samples per second), the CPU seconds per air sample and the
// bytes allocated per air sample.
func segmentMedians(segs []segMark) (rate, cpu, alloc float64) {
	var r, c, a []float64
	for i := 1; i < len(segs); i++ {
		p, s := segs[i-1], segs[i]
		air := float64(s.air - p.air)
		r = append(r, air/s.t.Sub(p.t).Seconds())
		c = append(c, (s.cpu-p.cpu).Seconds()/air)
		a = append(a, float64(s.alloc-p.alloc)/air)
	}
	return median(r), median(c), median(a)
}

// meter snapshots the process-wide costs the end-to-end metrics charge
// to a run: wall time, CPU (getrusage) and allocation.
type meter struct {
	t   time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func startMeter() meter {
	var m meter
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t = time.Now()
	return m
}

func (m meter) stop(o *runOut) {
	o.wall = time.Since(m.t)
	o.cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - m.ms.TotalAlloc
	o.gc = ms.NumGC - m.ms.NumGC
}

// gatewayOptions is the in-process system under test: a streaming
// Gateway with one decode worker per CPU.
func gatewayOptions(extra []cic.Option) []cic.Option {
	return append([]cic.Option{cic.WithWorkers(runtime.GOMAXPROCS(0))}, extra...)
}

// setupGateway times NewGateway (until it accepts samples) reps times.
func setupGateway(cfg cic.Config, reps int) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // start each build from a settled heap
		t := time.Now()
		gw, err := cic.NewGateway(cfg, gatewayOptions(nil)...)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
		if err := gw.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runClosed is the closed loop of sparse-sf8 and dense-k8: one writer
// calls Gateway.Write with the next chunk as soon as the previous call
// returns, for the given wall time, then closes the gateway and waits
// for its last packet. When tr is set, each Write and the Close are
// recorded as spans.
func runClosed(in *input, seconds float64, opts []cic.Option, tr *tracer) (*runOut, error) {
	st := in.stations[0]
	gw, err := cic.NewGateway(in.cfg, gatewayOptions(opts)...)
	if err != nil {
		return nil, err
	}
	out := &runOut{written: make([]int64, 1), recs: make([][]sinkRec, 1)}
	// fed is the stream position handed to the gateway so far, the
	// closed loop's air clock.
	var fed atomic.Int64
	type delivered struct {
		p   cic.Packet
		at  time.Time
		fed int64
	}
	got := make([]delivered, 0, 1<<12)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Keep the benchmark's own allocations out of the measured run:
		// records are built after it.
		for p := range gw.Packets() {
			got = append(got, delivered{p, time.Now(), fed.Load()})
		}
	}()
	buf := make([]complex128, chunkSamples)
	var pos int64
	write := func() error {
		st.fill(buf, pos)
		pos += int64(len(buf))
		fed.Store(pos)
		t := time.Now()
		if _, err := gw.Write(buf); err != nil {
			return fmt.Errorf("gateway write: %w", err)
		}
		if tr != nil {
			tr.add("cic.Write", "", tr.root, t, time.Now())
		}
		return nil
	}
	// Warm up untimed, so the gateway's buffer pool has filled.
	for warm := time.Now().Add(warmup); time.Now().Before(warm); {
		if err := write(); err != nil {
			gw.Close()
			<-done
			return nil, err
		}
	}
	if tr != nil {
		tr.timed()
	}
	m := startMeter()
	start := pos
	segDur := time.Duration(seconds / segments * float64(time.Second))
	deadline := m.t.Add(segments * segDur)
	out.segs = append(out.segs, markNow(0))
	nextSeg := m.t.Add(segDur)
	for {
		t := time.Now()
		if !t.Before(nextSeg) {
			out.segs = append(out.segs, markNow(pos-start))
			nextSeg = nextSeg.Add(segDur)
		}
		if !t.Before(deadline) {
			break
		}
		if err := write(); err != nil {
			gw.Close()
			<-done
			return nil, err
		}
	}
	t := time.Now()
	err = gw.Close()
	<-done
	m.stop(out)
	if tr != nil {
		tr.add("cic.Close", "", tr.root, t, time.Now())
	}
	if err != nil {
		return nil, fmt.Errorf("gateway close: %w", err)
	}
	out.written[0], out.timed = pos, pos-start
	for i, d := range got {
		out.recs[0] = append(out.recs[0], sinkRec{Record: toRecord(st.name, i, d.p), at: d.at, fed: d.fed})
	}
	// A closed loop has no schedule: its clock is the air fed so far, so
	// latency is the air the gateway took in after a packet ended
	// before delivering it.
	out.latencyMs = func(r sinkRec, end int64) float64 {
		return float64(r.fed-end) / in.cfg.SampleRate() * 1e3
	}
	return out, nil
}

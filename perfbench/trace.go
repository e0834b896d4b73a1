package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"cic"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one packet share Key ("station@start").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// packetStamps are the wall instants a packet passed the gateway's
// trace points.
type packetStamps struct {
	start                int64
	detect, header, emit time.Time
}

// tracer keeps spans and per-packet stamps in memory for one traced
// run; they are written out when the run ends.
type tracer struct {
	t0   time.Time
	root int
	// onTimed, when set, runs as the timed part of a run begins (after
	// a closed loop's warm-up); timedFrom is that instant.
	onTimed   func()
	timedFrom time.Time

	mu      sync.Mutex
	spans   []span
	packets map[string]*packetStamps // keyed by station/packet id
	detects map[string][]int64       // detected starts per station
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), packets: map[string]*packetStamps{}, detects: map[string][]int64{}}
	t.root = t.add("run", "", 0, t.t0, t.t0)
	return t
}

// add records a span and returns its id.
func (t *tracer) add(name, key string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// call runs fn inside a span and returns its duration.
func (t *tracer) call(name string, parent int, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	t.add(name, "", parent, s, e)
	return e.Sub(s)
}

// gatewayHook is the cic.WithTracer callback for one station's gateway:
// it stamps detect, header and emit per packet id, and on emit records
// the packet's spans.
func (t *tracer) gatewayHook(station string) func(cic.Event) {
	return func(ev cic.Event) {
		now := time.Now()
		k := fmt.Sprintf("%s/%d", station, ev.PacketID)
		t.mu.Lock()
		p := t.packets[k]
		if p == nil {
			p = &packetStamps{start: ev.Start}
			t.packets[k] = p
		}
		var done *packetStamps
		switch ev.Kind {
		case cic.EventDetect:
			p.detect = now
			t.detects[station] = append(t.detects[station], ev.Start)
		case cic.EventHeader:
			p.header = now
		case cic.EventEmit:
			p.emit = now
			done = p
		}
		t.mu.Unlock()
		if done == nil || done.detect.IsZero() {
			return
		}
		key := fmt.Sprintf("%s@%d", station, done.start)
		pid := t.add("cic.packet", key, t.root, done.detect, done.emit)
		if !done.header.IsZero() {
			t.add("cic.detect_to_header", key, pid, done.detect, done.header)
			t.add("cic.header_to_emit", key, pid, done.header, done.emit)
		}
	}
}

// detectToEmitMs lists every emitted packet's detect → emit latency.
func (t *tracer) detectToEmitMs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, p := range t.packets {
		if !p.detect.IsZero() && !p.emit.IsZero() {
			out = append(out, ms(p.emit.Sub(p.detect)))
		}
	}
	return out
}

// timed marks the start of the timed part of the run.
func (t *tracer) timed() {
	if t.onTimed != nil {
		t.onTimed()
	}
	t.mu.Lock()
	t.timedFrom = time.Now()
	t.mu.Unlock()
}

// spanMs lists the durations of the spans with the given name that
// began in the timed part of the run.
func (t *tracer) spanMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	from := t.timedFrom.Sub(t.t0).Nanoseconds()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler tracks the peak live heap while a run is traced, reading
// runtime/metrics (which does not stop the world) every 10 ms.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"cic"
	"cic/internal/cluster"
	"cic/internal/server"
)

// stampSink is an NDJSON sink writer that keeps each record line with
// the instant it was published. Fanout hands it one whole line per
// Write.
type stampSink struct {
	mu    sync.Mutex
	lines []stampedLine
}

type stampedLine struct {
	at   time.Time
	line []byte
}

func (s *stampSink) Write(p []byte) (int, error) {
	now := time.Now()
	line := bytes.Clone(p)
	s.mu.Lock()
	s.lines = append(s.lines, stampedLine{now, line})
	s.mu.Unlock()
	return len(p), nil
}

func (s *stampSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lines)
}

// records parses every line, in publish order.
func (s *stampSink) records() ([]sinkRec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sinkRec, 0, len(s.lines))
	for _, l := range s.lines {
		var r sinkRec
		if err := json.Unmarshal(l.line, &r.Record); err != nil {
			return nil, fmt.Errorf("sink line %q: %w", l.line, err)
		}
		r.at = l.at
		out = append(out, r)
	}
	return out, nil
}

// bytes is the total NDJSON volume published.
func (s *stampSink) bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.lines {
		n += len(l.line)
	}
	return n
}

// backendRig is one in-process gatewayd shard on loopback listeners.
type backendRig struct {
	name    string
	srv     *server.Server
	ln, pub net.Listener
	reg     *cic.Metrics
	sink    *stampSink
}

// rig is the routed system under test: two server.Server backends
// behind a cluster.Router, all on loopback TCP, with the router's
// record intake subscribed to each backend's NDJSON listener.
type rig struct {
	backends []*backendRig
	router   *cluster.Router
	rln      net.Listener
	reg      *cic.Metrics
	sink     *stampSink
	serveWG  sync.WaitGroup
}

// startRig builds the routed system and returns once the router is
// Ready and its intake is subscribed to every backend. With traced set,
// every component gets a metrics registry and hook(i) supplies backend
// i's extra gateway options.
func startRig(traced bool, hook func(i int) []cic.Option) (*rig, error) {
	r := &rig{sink: &stampSink{}}
	var specs []cluster.BackendSpec
	for i := 0; i < 2; i++ {
		b := &backendRig{name: fmt.Sprintf("b%d", i), sink: &stampSink{}}
		cfg := server.Config{Sink: server.NewFanout(b.sink)}
		if traced {
			b.reg = cic.NewMetrics()
			cfg.Metrics = b.reg
		}
		if hook != nil {
			cfg.GatewayOptions = hook(i)
		}
		b.srv = server.New(cfg)
		var err error
		if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			r.shutdown()
			return nil, err
		}
		if b.pub, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			b.ln.Close()
			r.shutdown()
			return nil, err
		}
		r.serve(func() error { return b.srv.Serve(b.ln) })
		r.serve(func() error { return b.srv.ServePub(b.pub) })
		r.backends = append(r.backends, b)
		specs = append(specs, cluster.BackendSpec{Name: b.name, Addr: b.ln.Addr().String(), PubAddr: b.pub.Addr().String()})
	}
	cfg := cluster.Config{Backends: specs, Sink: server.NewFanout(r.sink)}
	if traced {
		r.reg = cic.NewMetrics()
		cfg.Metrics = r.reg
	}
	r.router = cluster.New(cfg)
	var err error
	if r.rln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.shutdown()
		return nil, err
	}
	r.serve(func() error { return r.router.Serve(r.rln) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := r.router.Ready() == nil
		for _, b := range r.backends {
			ready = ready && b.srv.Sink().Subscribers() == 1
		}
		if ready {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.shutdown()
			return nil, errors.New("routed system not ready within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *rig) serve(fn func() error) {
	r.serveWG.Add(1)
	go func() {
		defer r.serveWG.Done()
		fn() // returns nil once Shutdown closes the listener
	}()
}

func (r *rig) addr() string { return r.rln.Addr().String() }

// shutdown stops the router, then the backends, and waits for every
// accept loop to return.
func (r *rig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if r.router != nil {
		errs = append(errs, r.router.Shutdown(ctx))
	} else if r.rln != nil {
		r.rln.Close()
	}
	for _, b := range r.backends {
		errs = append(errs, b.srv.Shutdown(ctx))
	}
	r.serveWG.Wait()
	return errors.Join(errs...)
}

// stationIDs picks one wire station id per input station such that the
// router's ring places each on a different backend.
func (r *rig) stationIDs(in *input) []string {
	used := map[string]bool{}
	ids := make([]string, len(in.stations))
	for i, st := range in.stations {
		for j := 0; ; j++ {
			id := fmt.Sprintf("%s-%d", st.name, j)
			if b := r.router.BackendFor(id); !used[b] {
				used[b] = true
				ids[i] = id
				break
			}
		}
	}
	return ids
}

// setupRig times building the routed system until it accepts samples.
func setupRig(reps int) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // start each build from a settled heap
		t := time.Now()
		r, err := startRig(false, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
		if err := r.shutdown(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOpen is routed-2st: every station streams its air through the
// router over its own connection, paced at 1× air rate (each chunk is
// sent when its last sample is due), then closes; the run ends when the
// router sink holds every record the backends published.
func runOpen(r *rig, in *input, seconds float64, tr *tracer) (*runOut, error) {
	ids := r.stationIDs(in)
	rate := in.cfg.SampleRate()
	total := int64(seconds * rate)
	out := &runOut{written: make([]int64, len(in.stations)), recs: make([][]sinkRec, len(in.stations)), ids: ids, rig: r}
	clients := make([]*server.Client, len(in.stations))
	for i, id := range ids {
		c, err := server.DialTimeout(r.addr(), 5*time.Second)
		if err == nil {
			err = c.Hello(id, in.cfg)
		}
		if err != nil {
			for _, c := range clients[:i] {
				c.Abort()
			}
			return nil, fmt.Errorf("station %s: %w", id, err)
		}
		clients[i] = c
	}
	if tr != nil {
		tr.timed()
	}
	m := startMeter()
	t0 := m.t.Add(20 * time.Millisecond)
	due := func(sample int64) time.Time {
		return t0.Add(time.Duration(float64(sample) / rate * float64(time.Second)))
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	// Sample costs every segment of the paced air.
	stopSeg := make(chan struct{})
	segDone := make(chan struct{})
	go func() {
		defer close(segDone)
		time.Sleep(time.Until(t0))
		out.segs = append(out.segs, markNow(0))
		segDur := time.Duration(seconds / segments * float64(time.Second))
		for k := 1; k <= segments; k++ {
			select {
			case <-stopSeg:
				return
			case <-time.After(time.Until(t0.Add(time.Duration(k) * segDur))):
			}
			out.segs = append(out.segs, markNow(int64(len(ids))*min(total, int64(float64(k)*segDur.Seconds()*rate))))
		}
	}()
	for i := range in.stations {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, c := in.stations[i], clients[i]
			buf := make([]complex128, chunkSamples)
			var late []float64
			var err error
			for pos := int64(0); pos < total && err == nil; pos += chunkSamples {
				n := min(chunkSamples, total-pos)
				st.fill(buf[:n], pos)
				d := due(pos + n)
				time.Sleep(time.Until(d))
				s := time.Now()
				late = append(late, ms(s.Sub(d)))
				err = c.WriteIQ(buf[:n])
				if tr != nil {
					tr.add("server.WriteIQ", "", tr.root, s, time.Now())
				}
			}
			s := time.Now()
			if err == nil {
				err = c.Close()
			} else {
				c.Abort()
			}
			if tr != nil {
				tr.add("server.Close", "", tr.root, s, time.Now())
			}
			mu.Lock()
			out.lateMs = append(out.lateMs, late...)
			if err != nil {
				errs = append(errs, fmt.Errorf("station %s: %w", ids[i], err))
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(stopSeg)
	<-segDone
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Each Close returns once the backend has published its station's
	// records; they reach the router sink through the intake after that.
	deadline := time.Now().Add(30 * time.Second)
	for {
		want := 0
		for _, b := range r.backends {
			want += b.sink.len()
		}
		if r.sink.len() >= want {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("router sink holds %d of %d backend records after 30s", r.sink.len(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	m.stop(out)
	recs, err := r.sink.records()
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, id := range ids {
		index[id] = i
		out.written[i] = total
	}
	out.timed = int64(len(ids)) * total
	for _, rec := range recs {
		i, ok := index[rec.Station]
		if !ok {
			return nil, fmt.Errorf("router sink record for unknown station %q", rec.Station)
		}
		out.recs[i] = append(out.recs[i], rec)
	}
	out.latencyMs = func(r sinkRec, end int64) float64 { return ms(r.at.Sub(due(end))) }
	return out, nil
}

// referenceDecode runs one station's stream through an in-process
// Gateway with the chunking the routed client used, giving the records
// a server session publishes for it.
func referenceDecode(in *input, st *station, id string, total int64) ([]server.Record, error) {
	gw, err := cic.NewGateway(in.cfg, gatewayOptions(nil)...)
	if err != nil {
		return nil, err
	}
	var recs []server.Record
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range gw.Packets() {
			recs = append(recs, toRecord(id, len(recs), p))
		}
	}()
	buf := make([]complex128, chunkSamples)
	for pos := int64(0); pos < total; pos += chunkSamples {
		n := min(chunkSamples, total-pos)
		st.fill(buf[:n], pos)
		if _, err := gw.Write(buf[:n]); err != nil {
			gw.Close()
			<-done
			return nil, err
		}
	}
	err = gw.Close()
	<-done
	return recs, err
}

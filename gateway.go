package cic

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cic/internal/baseline/choir"
	"cic/internal/baseline/ftrack"
	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/phy"
	"cic/internal/rx"
)

// Gateway is the streaming receiver and the repository's one decode
// driver: push raw IQ samples in arbitrary chunks as they arrive from an
// SDR front end, and receive decoded packets on a channel as soon as each
// transmission completes. This is the paper's §6 deployment shape — a
// demodulator co-located with the radio or running as a virtual gateway
// in the cloud. Receiver.DecodeSource streams a whole source through a
// Gateway, so batch and streaming decodes are the same computation.
//
//	gw, _ := cic.NewGateway(cfg, cic.WithWorkers(4))
//	go func() {
//	    for pkt := range gw.Packets() {
//	        handle(pkt)
//	    }
//	}()
//	for chunk := range sdr {
//	    gw.Write(chunk)
//	}
//	gw.Close()
//
// Internally the gateway keeps a bounded ring of recent samples, scans each
// newly arrived region for preambles incrementally, and decodes each packet
// in two phases: its header once the header symbols are in, its payload
// once the air has moved past the packet's real end. Each phase waits a
// settle margin (one preamble plus the scan lag) past its span, by which
// time every transmission that overlaps the span has itself been detected,
// so the CIC boundary bookkeeping is complete. Write cuts its input at
// absolute multiples of a fixed ingest step (16 symbols) and detects and
// dispatches only at those boundaries, so the decoded records depend only
// on the sample stream, never on how it was split into writes.
//
// Decoding is pipelined: the ingest goroutine detects preambles, decodes
// each packet's header in start order (cheap, and order-sensitive — header
// decode fixes the packet length that later packets' boundary bookkeeping
// depends on, and it assigns the delivery sequence number), snapshots the
// packet's samples out of the ring with a two-segment bulk copy once its
// payload has settled, and hands the expensive payload demodulation to a
// pool of workers, each owning a private symbol picker (the algorithm's
// demodulator: CIC's core.Demodulator or a baseline's). A reorder
// buffer delivers results on Packets() in header (air-time) order, so
// the output sequence is identical to a single-worker gateway.
// Backpressure is bounded by the pool depth: when every worker is busy and
// the job queue is full, Write blocks.
//
// Write, Close, Packets and BufferedSamples are all safe for concurrent
// use (Write and Close serialise on an internal mutex).
type Gateway struct {
	cfg     Config
	fcfg    frame.Config
	det     *rx.Detector
	scan    func(src rx.SampleSource, start, end int64) []*rx.Packet
	hdr     rx.SymbolPicker // header demodulation on the ingest goroutine
	out     chan Packet
	sizes   // sample counts: max packet, ingest step, scan lag, settle margin, ring
	workers int

	// Ingest state, guarded by wmu (Write, Close and the flush path
	// serialise on it; ring samples are only touched while holding it).
	wmu      sync.Mutex
	closed   bool
	buf      []complex128 // ring storage: sample a lives at buf[a%len(buf)]
	base     atomic.Int64 // absolute index of the oldest retained sample
	written  atomic.Int64 // absolute index one past the newest sample
	scanned  int64        // scan frontier (exclusive)
	pending  []*rx.Packet // detected, header not yet decoded
	headed   []headed     // header decoded, payload not yet dispatched (seq order)
	active   []*rx.Packet // all tracked packets still relevant as interferers
	maxIDSeq int
	seq      int64 // header sequence number (reorder key)

	// dispatched, when keepDispatched is set, collects a copy of every
	// packet's geometry in header order — the order of Packets().
	// Receiver's LoRa capture post-pass reads the preamble amplitudes and
	// header-derived lengths from it. Guarded by wmu.
	keepDispatched bool
	dispatched     []rx.Packet

	jobs        chan decodeJob
	results     chan seqPacket
	workerWG    sync.WaitGroup
	reorderDone chan struct{}
	snapPool    sync.Pool

	// Observability. reg is the WithMetrics registry (nil when detached);
	// m is the pre-resolved handle set (the shared no-op set when reg is
	// nil, so every stage updates fields unconditionally without branching
	// on enablement). detectedAt stamps each tracked packet's wall-clock
	// detection instant for the decode-latency histogram and emit events;
	// it is only allocated when metrics or tracing are on, so the disabled
	// path never reads the clock. Guarded by wmu (ingest path only).
	reg        *Metrics
	m          *obs.DecodeMetrics
	tracer     obs.Tracer
	detectedAt map[int]time.Time

	// Resilience hooks (WithDecodeInterceptor / WithPanicHook): the
	// interceptor transforms each worker result before reorder; the
	// panic hook observes recovered worker panics. Both nil by default.
	intercept func(Packet) Packet
	panicHook func(stage string, recovered any)

	// flight records emit verdicts and worker-panic incidents into the
	// session's flight-recorder scope (WithFlightScope). Nil when no
	// recorder is attached; never touched from the //cic:hotpath loop.
	flight *obs.FlightScope
}

// decodeJob carries one dispatched packet to the worker pool. The ingest
// goroutine has already decoded the header; the worker demodulates the
// payload against a private snapshot of the ring, so it never contends
// with ingest for sample access.
type decodeJob struct {
	seq    int64
	ready  bool   // result is final (header failed): just forward it
	result Packet // prefilled Start/SNR/CFO; final when ready

	pkt       *rx.Packet   // private clone, NSymbols refined from the header
	others    []*rx.Packet // private clones of the interferer geometry
	syms      []uint16     // header symbols (cap covers the payload)
	snap      []complex128 // samples [snapStart, snapStart+len(snap))
	snapStart int64
	snapBuf   *[]complex128 // pool token for snap

	// Trace context (zero-valued when metrics and tracing are off).
	id         int            // packet ID assigned at detection
	detectedAt time.Time      // wall-clock detection instant
	gates      obs.GateCounts // header-phase gate verdicts
}

// headed is a packet whose header is decoded: its payload job, already
// carrying the sequence number and header symbols, waits for the packet's
// real end to settle.
type headed struct {
	p       *rx.Packet
	job     decodeJob
	hdrTime time.Duration // header decode time, observed with the snapshot's
}

// seqPacket is a decoded packet tagged with its header sequence number
// plus the trace context the reorder stage needs for latency accounting
// and emit events.
type seqPacket struct {
	seq int64
	pkt Packet

	id         int
	headerOK   bool
	nsyms      int
	gates      obs.GateCounts
	detectedAt time.Time // detection instant (zero when tracing is off)
	doneAt     time.Time // worker completion instant (zero when metrics off)
}

// ErrGatewayClosed is returned by Write after Close.
var ErrGatewayClosed = errors.New("cic: gateway closed")

// NewGateway builds a streaming gateway. Options are as for NewReceiver.
// Every algorithm streams except AlgorithmLoRa, whose capture lock picks
// its survivors from the whole detection set; Receiver applies it after
// the stream closes. WithWorkers sets the payload decode pool size
// (default GOMAXPROCS).
func NewGateway(cfg Config, options ...Option) (*Gateway, error) {
	o := applyOptions(options)
	if o.algo == AlgorithmLoRa {
		return nil, fmt.Errorf("cic: gateway streaming does not support %q: its capture lock needs the whole detection set (use Receiver)", o.algo)
	}
	return newGateway(cfg, o)
}

// Ingest step and up-chirp scan lag, in symbols. The down-chirp scan
// reads at most two symbols past its frontier; a conventional up-chirp run
// is localised and verified up to ten symbols past its last window.
const (
	ingestStepSymbols = 16
	downchirpLag      = 2
	upchirpLag        = 10
)

// sizes are a gateway's sample counts, each derived from the frame config.
type sizes struct {
	maxPkt  int64 // a max-length (255-byte) packet, preamble included
	step    int64 // the ingest step: detection and dispatch run at its multiples
	scanLag int64 // how far the scan frontier trails the newest sample
	settle  int64 // how far a decode phase trails the end of its span
	ring    int64 // the sample ring's length
}

// gatewaySizes sizes a gateway for fc and its preamble scan. A decode
// phase waits until settle = one preamble + scanLag has been written past
// its span: the scan finds a packet by the end of its preamble, so by
// then every packet that starts inside the span has been detected. The
// ring is the furthest a payload dispatch can trail its packet's start: a
// max-length packet's payload is snapshotted at the first ingest step at
// or past its end + settle, so ring = maxPkt + settle + step keeps every
// sample a pending packet needs.
func gatewaySizes(fc frame.Config, upchirp bool) sizes {
	m := int64(fc.Chirp.SamplesPerSymbol())
	pre := int64(fc.PreambleSampleCount())
	z := sizes{
		maxPkt:  pre + int64(phy.MaxSymbolCount(fc.PHY))*m,
		step:    ingestStepSymbols * m,
		scanLag: downchirpLag * m,
	}
	if upchirp {
		z.scanLag = upchirpLag * m
	}
	z.settle = pre + z.scanLag
	z.ring = z.maxPkt + z.settle + z.step
	return z
}

// GatewaySamples reports the sample counts behind a CIC gateway's memory
// for cfg without building one: ring is the length of its sample ring and
// maxPkt the airtime of a max-length packet, which bounds one payload
// snapshot (a header can claim 255 bytes). A Gateway built from cfg
// reports the same through RingSamples and MaxPacketSamples; the
// conventional up-chirp scan of the baselines trails by eight more
// symbols, and its ring is that much longer.
func GatewaySamples(cfg Config) (ring, maxPkt int64, err error) {
	fc, err := cfg.frameConfig()
	if err != nil {
		return 0, 0, err
	}
	z := gatewaySizes(fc, false)
	return z.ring, z.maxPkt, nil
}

// newGateway builds a gateway for any algorithm, AlgorithmLoRa included.
func newGateway(cfg Config, o receiverOptions) (*Gateway, error) {
	fc, err := cfg.frameConfig()
	if err != nil {
		return nil, err
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dmx := obs.NewDecodeMetrics(o.metrics)
	dec, err := decoderFor(fc, o, dmx)
	if err != nil {
		return nil, err
	}
	det, err := rx.NewDetector(fc, dec.detOpts)
	if err != nil {
		return nil, err
	}
	hdr, err := dec.newPicker()
	if err != nil {
		return nil, err
	}
	sz := gatewaySizes(fc, dec.upchirp)
	g := &Gateway{
		cfg:         cfg,
		fcfg:        fc,
		det:         det,
		scan:        det.ScanDownchirpRange,
		hdr:         hdr,
		out:         make(chan Packet, 64),
		sizes:       sz,
		workers:     workers,
		buf:         make([]complex128, sz.ring),
		jobs:        make(chan decodeJob, workers),
		results:     make(chan seqPacket, workers),
		reorderDone: make(chan struct{}),
		reg:         o.metrics,
		m:           dmx,
		tracer:      obs.Tracer(o.tracer),
		intercept:   o.intercept,
		panicHook:   o.panicHook,
		flight:      o.flight,
	}
	if dec.upchirp {
		g.scan = det.ScanUpchirpRange
	}
	if o.metrics != nil || o.tracer != nil {
		g.detectedAt = make(map[int]time.Time)
	}
	pickers := make([]rx.SymbolPicker, workers)
	for w := range pickers {
		if pickers[w], err = dec.newPicker(); err != nil {
			return nil, err
		}
	}
	for _, p := range pickers {
		g.workerWG.Add(1)
		go g.worker(p)
	}
	go func() {
		g.reorder()
		close(g.reorderDone)
	}()
	return g, nil
}

// decoder is one algorithm's part of the decode driver: its preamble scan
// and a factory for its symbol pickers (one per goroutine).
type decoder struct {
	detOpts   rx.DetectorOptions
	upchirp   bool // conventional up-chirp scan instead of CIC's down-chirp scan
	newPicker func() (rx.SymbolPicker, error)
}

// decoderFor resolves the algorithm selected in o.
func decoderFor(fc frame.Config, o receiverOptions, m *obs.DecodeMetrics) (decoder, error) {
	d := decoder{detOpts: rx.DetectorOptions{Metrics: m}, upchirp: true}
	switch o.algo {
	case AlgorithmCIC, AlgorithmStrawman:
		opts := core.Options{
			Strawman:           o.algo == AlgorithmStrawman,
			DisableSED:         o.disableSED,
			DisableCFOFilter:   o.disableCFOFilter,
			DisablePowerFilter: o.disablePowerFilter,
			Metrics:            m,
		}
		d.upchirp = false
		d.newPicker = func() (rx.SymbolPicker, error) { return core.NewDemodulator(fc, opts) }
	case AlgorithmLoRa:
		d.newPicker = func() (rx.SymbolPicker, error) { return stdlora.NewPicker(fc) }
	case AlgorithmChoir:
		d.newPicker = func() (rx.SymbolPicker, error) { return choir.NewPicker(fc, choir.Options{}) }
	case AlgorithmFTrack:
		// FTrack extracts multiple frequency tracks per window, so its
		// preamble search tolerates a stronger concurrent peak.
		d.detOpts.UpchirpTopK = 3
		d.newPicker = func() (rx.SymbolPicker, error) { return ftrack.NewPicker(fc, ftrack.Options{}) }
	default:
		return decoder{}, fmt.Errorf("cic: unknown algorithm %q", o.algo)
	}
	return d, nil
}

// Packets returns the channel on which decoded packets are delivered. The
// channel is closed by Close after the final flush.
func (g *Gateway) Packets() <-chan Packet { return g.out }

// BufferedSamples reports how many samples the gateway currently retains.
func (g *Gateway) BufferedSamples() int64 {
	return g.written.Load() - g.base.Load()
}

// Workers reports the payload decode pool size.
func (g *Gateway) Workers() int { return g.workers }

// Write appends IQ samples to the stream and processes whatever became
// decodable at each ingest-step boundary the samples cross. It may block
// when every decode worker is busy and the job queue is full, or when the
// Packets channel is full (backpressure).
func (g *Gateway) Write(iq []complex128) (int, error) {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.closed {
		return 0, ErrGatewayClosed
	}
	g.m.SamplesIngested.Add(int64(len(iq)))
	n := len(iq)
	for len(iq) > 0 {
		written := g.written.Load()
		k := min(g.step-written%g.step, int64(len(iq)))
		g.writeBulk(iq[:k])
		iq = iq[k:]
		if (written+k)%g.step == 0 {
			g.process(false) //cic:lock-ok: dispatch sends on g.jobs under wmu by design — the bounded queue is the documented backpressure contract, and Close (the only other wmu holder) drains it
		}
	}
	return n, nil
}

// Close flushes the stream (decoding every packet whose samples are fully
// buffered, even if the air has not moved past its end), drains the worker
// pool and closes the Packets channel. Close is idempotent and safe to
// call concurrently with Write.
func (g *Gateway) Close() error {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.closed {
		return nil
	}
	g.process(true) //cic:lock-ok: final flush under wmu serialises with Write; workers drain g.jobs so the send cannot block forever
	g.closed = true
	close(g.jobs)
	g.workerWG.Wait() //cic:lock-ok: shutdown barrier — workers never take wmu, so the wait under it cannot deadlock, and holding it keeps Write/Close mutually exclusive
	close(g.results)
	<-g.reorderDone //cic:lock-ok: reorder goroutine exits once results closes; the receive is the shutdown handshake, not a steady-state block
	return nil
}

// writeBulk appends at most one ingest step of samples to the ring with
// at most two copy calls, evicting the oldest samples when full. Caller
// holds wmu.
func (g *Gateway) writeBulk(iq []complex128) {
	n := int64(len(g.buf))
	written := g.written.Load()
	newWritten := written + int64(len(iq))
	if base := g.base.Load(); newWritten-base > n {
		g.base.Store(newWritten - n)
	}
	pos := written % n
	c := copy(g.buf[pos:], iq)
	copy(g.buf, iq[c:])
	g.written.Store(newWritten)
}

// readRing fills dst with samples for the absolute window
// [start, start+len(dst)), zero-filling outside the retained span, using
// at most two copy calls. Caller holds wmu (the ring is only mutated and
// read on the ingest path; decode workers read private snapshots).
func (g *Gateway) readRing(dst []complex128, start int64) {
	n := int64(len(g.buf))
	base, written := g.base.Load(), g.written.Load()
	lo, hi := start, start+int64(len(dst))
	from, to := lo, hi
	if from < base {
		from = base
	}
	if to > written {
		to = written
	}
	if to <= from {
		clear(dst)
		return
	}
	clear(dst[:from-lo])
	clear(dst[to-lo:])
	span := to - from
	pos := from % n
	first := n - pos
	if first > span {
		first = span
	}
	copy(dst[from-lo:], g.buf[pos:pos+first])
	copy(dst[from-lo+first:to-lo], g.buf[:span-first])
}

// ringSource adapts the ring buffer as an rx.SampleSource for the ingest
// goroutine (detection and header demodulation).
type ringSource struct{ g *Gateway }

func (r ringSource) Read(dst []complex128, start int64) { r.g.readRing(dst, start) }

func (r ringSource) Span() (int64, int64) {
	return r.g.base.Load(), r.g.written.Load()
}

// process advances detection and runs both decode phases for every packet
// whose span has settled. flush forces both phases for everything
// currently buffered. Caller holds wmu.
func (g *Gateway) process(flush bool) {
	src := ringSource{g}
	written := g.written.Load()
	fc := g.fcfg

	// Detection trails the newest sample by scanLag so every scan window is
	// fully buffered.
	scanTo := written - g.scanLag
	if flush {
		scanTo = written
	}
	if scanTo > g.scanned {
		t0 := g.m.DetectTime.Start()
		found := g.scan(src, g.scanned, scanTo)
		g.m.DetectTime.Since(t0)
		for _, p := range found {
			if g.known(p) {
				continue
			}
			g.maxIDSeq++
			p.ID = g.maxIDSeq
			p.NSymbols = phy.MaxSymbolCount(fc.PHY)
			g.pending = append(g.pending, p)
			g.active = append(g.active, p)
			// Count preambles only after the known() dedup: incremental
			// scans re-find tracked packets, and those are not detections.
			g.m.PreamblesDetected.Inc()
			if g.detectedAt != nil {
				g.detectedAt[p.ID] = obs.Now()
			}
			if g.tracer != nil {
				g.tracer(obs.Event{
					Kind:     obs.EventDetect,
					PacketID: p.ID,
					Start:    p.Start,
					SNRdB:    p.SNRdB,
					CFOHz:    p.CFOHz,
					Score:    p.Score,
				})
			}
		}
		g.scanned = scanTo
	}

	// Phase 1: decode headers oldest first, once every packet that overlaps
	// the header has been detected. The time a header settles rises with
	// the packet's start, so the sequence number assigned here follows
	// start order, and it keys delivery.
	for {
		idx := -1
		for i, p := range g.pending {
			if (flush || p.SymbolStart(fc, phy.HeaderSymbolCount)+g.settle <= written) &&
				(idx < 0 || p.Start < g.pending[idx].Start) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		p := g.pending[idx]
		g.pending = append(g.pending[:idx], g.pending[idx+1:]...)
		g.decodeHeader(src, p)
	}

	// Phase 2: queue each payload once its real end has settled. Headers
	// decoded since carry their real lengths into the interferer clones.
	keep := g.headed[:0]
	for _, h := range g.headed {
		if flush || h.p.End(fc)+g.settle <= written {
			g.dispatch(h)
		} else {
			keep = append(keep, h)
		}
	}
	clear(g.headed[len(keep):])
	g.headed = keep

	// Retire tracked packets whose samples have left the ring: every
	// packet still to be dispatched starts after base, so they can no
	// longer interfere with anything still decodable.
	base := g.base.Load()
	active := g.active[:0]
	for _, q := range g.active {
		if q.End(fc) > base {
			active = append(active, q)
		}
	}
	clear(g.active[len(active):])
	g.active = active
}

// interferers returns every tracked packet but p.
func (g *Gateway) interferers(p *rx.Packet) []*rx.Packet {
	others := make([]*rx.Packet, 0, len(g.active)-1)
	for _, q := range g.active {
		if q != p {
			others = append(others, q)
		}
	}
	return others
}

// decodeHeader decodes one packet's header on the ingest goroutine, fixing
// its length (which later packets' boundary bookkeeping reads) and its
// sequence number. A header failure is forwarded at once; otherwise the
// payload job waits in headed for the packet's end to settle.
func (g *Gateway) decodeHeader(src rx.SampleSource, p *rx.Packet) {
	fc := g.fcfg
	t0 := g.m.DispatchTime.Start()
	others := g.interferers(p)
	job := decodeJob{seq: g.seq, id: p.ID, result: Packet{Start: p.Start, SNR: p.SNRdB, CFO: p.CFOHz}}
	g.seq++
	if g.detectedAt != nil {
		job.detectedAt = g.detectedAt[p.ID]
		delete(g.detectedAt, p.ID)
	}
	syms := make([]uint16, 0, p.NSymbols)
	for s := 0; s < phy.HeaderSymbolCount; s++ {
		syms = append(syms, g.hdr.PickSymbol(src, p, s, others))
	}
	job.gates = takeGateTally(g.hdr)
	hdr, ok := rx.HeaderFromSymbols(syms, fc.PHY)
	if !ok {
		g.m.HeaderFailures.Inc()
		g.noteDispatched(p)
		g.traceHeader(p, job.seq, false)
		job.ready = true
		g.m.CollisionSize.Observe(float64(len(others)))
		g.m.DispatchTime.Since(t0)
		g.jobs <- job
		g.m.QueueDepth.Set(int64(len(g.jobs)))
		return
	}
	pcfg := fc.PHY
	pcfg.CR = hdr.CR
	pcfg.HasCRC = hdr.HasCRC
	p.NSymbols = phy.SymbolCount(pcfg, int(hdr.Length))
	g.m.HeadersDecoded.Inc()
	g.noteDispatched(p)
	g.traceHeader(p, job.seq, true)
	job.syms = syms
	g.headed = append(g.headed, headed{p: p, job: job, hdrTime: obs.Since(t0)})
}

// dispatch snapshots one settled payload and queues it for a pool worker.
// The snapshot is a private clone of the packet and interferer geometry
// plus a bulk copy of the packet's samples, so the worker reads without
// touching the ring or the ingest lock. The send blocks when the pool is
// saturated (bounded backpressure).
func (g *Gateway) dispatch(h headed) {
	t0 := g.m.DispatchTime.Start()
	p, job := h.p, h.job
	others := g.interferers(p)
	g.m.CollisionSize.Observe(float64(len(others)))
	pc := *p
	job.pkt = &pc
	job.others = make([]*rx.Packet, len(others))
	for i, q := range others {
		qc := *q
		job.others[i] = &qc
	}
	need := p.End(g.fcfg) - p.Start
	bufp, _ := g.snapPool.Get().(*[]complex128)
	if bufp == nil || int64(cap(*bufp)) < need {
		s := make([]complex128, need)
		bufp = &s
	}
	snap := (*bufp)[:need]
	g.readRing(snap, p.Start)
	job.snap = snap
	job.snapBuf = bufp
	job.snapStart = p.Start
	g.m.DispatchTime.ObserveDuration(h.hdrTime + obs.Since(t0))
	g.jobs <- job
	g.m.QueueDepth.Set(int64(len(g.jobs)))
}

// noteDispatched records a dispatched packet for Receiver's post-passes
// (no-op unless keepDispatched is set).
func (g *Gateway) noteDispatched(p *rx.Packet) {
	if g.keepDispatched {
		g.dispatched = append(g.dispatched, *p)
	}
}

// takeGateTally drains a picker's per-packet gate verdicts; pickers that
// keep none report zero.
func takeGateTally(p rx.SymbolPicker) obs.GateCounts {
	if gt, ok := p.(rx.GateTallier); ok {
		return gt.TakeGateTally()
	}
	return obs.GateCounts{}
}

// traceHeader emits a header-stage trace event (no-op without a tracer).
func (g *Gateway) traceHeader(p *rx.Packet, seq int64, ok bool) {
	if g.tracer == nil {
		return
	}
	g.tracer(obs.Event{
		Kind:     obs.EventHeader,
		PacketID: p.ID,
		Seq:      seq,
		Start:    p.Start,
		SNRdB:    p.SNRdB,
		CFOHz:    p.CFOHz,
		HeaderOK: ok,
		NSymbols: p.NSymbols,
	})
}

// workerState is one pool worker's private arena: the symbol picker plus
// the per-job scratch that the payload path reuses across packets. No
// other goroutine touches it, so the steady-state decode loop performs no
// cross-worker sharing and no per-symbol allocation.
type workerState struct {
	picker  rx.SymbolPicker
	alt     rx.AlternatePicker // picker's ranked-alternates form; nil if it has none
	src     rx.MemorySource    // per-job sample view (avoids a heap escape per packet)
	altFlat []uint16           // backing store for all of one packet's ranked alternates
	altIdx  [][]uint16         // per-symbol views into altFlat
}

// worker demodulates payloads from the job queue with a private symbol
// picker and forwards results to the reorder stage.
func (g *Gateway) worker(picker rx.SymbolPicker) {
	defer g.workerWG.Done()
	// Alternate arenas are pre-sized for a typical payload (the caps are
	// soft — a long packet grows them once and they stay grown).
	alt, _ := picker.(rx.AlternatePicker)
	ws := &workerState{
		picker:  picker,
		alt:     alt,
		altFlat: make([]uint16, 0, 512),
		altIdx:  make([][]uint16, 0, 128),
	}
	for job := range g.jobs {
		g.runJob(ws, job)
	}
}

// runJob decodes one dispatched job and forwards the result. A panic
// anywhere in the payload path (or in the interceptor) is contained to
// this one packet: the job's prefilled result is forwarded undecoded so
// the reorder sequence still advances, the worker_panics_recovered
// counter ticks, and the panic hook (if any) observes the value — the
// worker then keeps serving the queue. Without this, one hostile packet
// would kill the process and with it every other session's gateway.
func (g *Gateway) runJob(ws *workerState, job decodeJob) {
	g.m.WorkersBusy.Add(1)
	defer g.m.WorkersBusy.Add(-1)
	done := false
	defer func() {
		if done {
			return
		}
		v := recover()
		g.m.WorkerPanics.Inc()
		if g.flight != nil {
			g.flight.RecordErr("worker_panic",
				fmt.Sprintf("packet %d seq %d forwarded undecoded", job.id, job.seq),
				fmt.Sprint(v))
		}
		if g.panicHook != nil {
			g.panicHook("payload", v)
		}
		// The snapshot buffer is not repooled: the panic may have left it
		// aliased, and losing one buffer per recovered panic is cheap.
		g.results <- seqPacket{
			seq:        job.seq,
			pkt:        job.result,
			id:         job.id,
			gates:      job.gates,
			detectedAt: job.detectedAt,
			doneAt:     g.m.ReorderWait.Start(),
		}
	}()
	pkt := job.result
	gates := job.gates // header-phase verdicts tallied in phase 1
	nsyms := 0
	if !job.ready {
		t0 := g.m.DemodTime.Start()
		pkt = g.decodePayload(ws, job)
		g.m.DemodTime.Since(t0)
		gates.Add(takeGateTally(ws.picker))
		nsyms = job.pkt.NSymbols
		g.snapPool.Put(job.snapBuf)
	}
	if g.intercept != nil {
		pkt = g.intercept(pkt)
	}
	done = true
	g.results <- seqPacket{
		seq:        job.seq,
		pkt:        pkt,
		id:         job.id,
		headerOK:   !job.ready,
		nsyms:      nsyms,
		gates:      gates,
		detectedAt: job.detectedAt,
		doneAt:     g.m.ReorderWait.Start(),
	}
}

// decodePayload demodulates one dispatched packet's payload. With an
// rx.AlternatePicker it also runs the CRC-driven chase pass over ranked
// alternates; those are the picker's scratch, so they are copied into the
// worker's flat arena before the next symbol.
//
//cic:hotpath
func (g *Gateway) decodePayload(ws *workerState, job decodeJob) Packet {
	out := job.result
	ws.src = rx.MemorySource{Base: job.snapStart, Samples: job.snap}
	src := &ws.src
	syms := job.syms
	ws.altFlat = ws.altFlat[:0]
	ws.altIdx = ws.altIdx[:0]
	for s := phy.HeaderSymbolCount; s < job.pkt.NSymbols; s++ {
		if ws.alt == nil {
			syms = append(syms, ws.picker.PickSymbol(src, job.pkt, s, job.others))
			continue
		}
		ranked := ws.alt.PickSymbolAlternates(src, job.pkt, s, job.others)
		syms = append(syms, ranked[0])
		start := len(ws.altFlat)
		ws.altFlat = append(ws.altFlat, ranked...)
		ws.altIdx = append(ws.altIdx, ws.altFlat[start:len(ws.altFlat):len(ws.altFlat)])
	}
	dec, err := phy.Decode(syms, g.fcfg.PHY) //cic:alloc-ok: sanctioned per-packet boundary — the decoded payload escapes to the caller, so phy.Decode allocates it fresh
	if err == nil && !dec.CRCOK && ws.alt != nil {
		if fixed, ok := rx.ChaseDecode(syms, ws.altIdx, g.fcfg.PHY); ok { //cic:alloc-ok: CRC-recovery cold path — runs only on checksum failure, off the steady-state budget
			dec = fixed
			g.m.ChaseRecovered.Inc()
		}
	}
	if err != nil {
		g.m.CRCFail.Inc()
		return out
	}
	if dec.CRCOK {
		g.m.CRCPass.Inc()
	} else {
		g.m.CRCFail.Inc()
	}
	out.Payload = dec.Payload
	out.OK = dec.CRCOK
	out.FECCorrected = dec.FECCorrected
	return out
}

// reorder delivers worker results on the Packets channel in header
// (sequence) order. A result is held while an earlier packet's payload is
// still waiting for its end or in flight, so the held map is bounded by
// the packets that start within one max-length packet.
func (g *Gateway) reorder() {
	defer close(g.out)
	next := int64(0)
	held := make(map[int64]seqPacket)
	for r := range g.results {
		if r.seq != next {
			held[r.seq] = r
			g.m.ReorderHeld.Set(int64(len(held)))
			continue
		}
		g.emit(r)
		next++
		for {
			p, ok := held[next]
			if !ok {
				break
			}
			delete(held, next)
			g.m.ReorderHeld.Set(int64(len(held)))
			g.emit(p)
			next++
		}
	}
}

// emit delivers one packet in sequence order and settles its latency
// accounting: time held in the reorder buffer, preamble-detect to emit
// latency, and the emit trace event.
func (g *Gateway) emit(r seqPacket) {
	g.m.ReorderWait.Since(r.doneAt)
	g.out <- r.pkt
	g.m.PacketsEmitted.Inc()
	g.m.DecodeLatency.Since(r.detectedAt)
	if g.tracer != nil {
		ev := obs.Event{
			Kind:         obs.EventEmit,
			PacketID:     r.id,
			Seq:          r.seq,
			Start:        r.pkt.Start,
			SNRdB:        r.pkt.SNR,
			CFOHz:        r.pkt.CFO,
			HeaderOK:     r.headerOK,
			NSymbols:     r.nsyms,
			CRCOK:        r.pkt.OK,
			PayloadLen:   len(r.pkt.Payload),
			FECCorrected: r.pkt.FECCorrected,
			Gates:        r.gates,
		}
		if !r.detectedAt.IsZero() {
			ev.Latency = obs.Since(r.detectedAt)
		}
		g.tracer(ev)
	}
	if g.flight != nil {
		gates := r.gates
		g.flight.RecordEvent(obs.FlightEvent{
			Kind:   "emit",
			Packet: r.id,
			CRCOK:  r.pkt.OK,
			Gates:  &gates,
		})
	}
}

// known reports whether a detection duplicates a tracked packet.
func (g *Gateway) known(p *rx.Packet) bool {
	m := int64(g.fcfg.Chirp.SamplesPerSymbol())
	for _, q := range g.active {
		d := p.Start - q.Start
		if d < 0 {
			d = -d
		}
		if d < m/2 {
			return true
		}
	}
	return false
}

// Config returns the gateway's configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Stats returns a snapshot of the registry attached with WithMetrics; the
// zero Stats when none is attached. Safe to call concurrently with Write.
func (g *Gateway) Stats() Stats { return g.reg.Snapshot() }

// MaxPacketSamples reports the airtime budget (in samples) the gateway
// assumes for a packet whose header is not yet decoded: a 255-byte packet
// at the configured coding rate, preamble included.
func (g *Gateway) MaxPacketSamples() int64 { return g.maxPkt }

// RingSamples reports the length of the gateway's sample ring: one
// max-length packet plus the settle margin and one ingest step (see
// GatewaySamples).
func (g *Gateway) RingSamples() int64 { return g.ring }

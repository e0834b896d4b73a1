package cic

import (
	"sort"

	"cic/internal/baseline/stdlora"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/rx"
)

// Algorithm selects the collision-decoding strategy of a Receiver.
type Algorithm string

// The available receiver algorithms.
const (
	// AlgorithmCIC is the paper's contribution: concurrent interference
	// cancellation with down-chirp detection, spectral intersection, SED
	// and the CFO/power candidate filters.
	AlgorithmCIC Algorithm = "cic"
	// AlgorithmStrawman is CIC restricted to the two-sub-symbol strawman
	// ICSS (paper §5, Figs 9/13) — for ablation.
	AlgorithmStrawman Algorithm = "strawman"
	// AlgorithmLoRa is the standard single-packet gateway with capture.
	AlgorithmLoRa Algorithm = "lora"
	// AlgorithmChoir matches peaks to transmitters by fractional CFO
	// (Eletreby et al., SIGCOMM 2017).
	AlgorithmChoir Algorithm = "choir"
	// AlgorithmFTrack matches time–frequency tracks to transmitters
	// (Xia et al., SenSys 2019).
	AlgorithmFTrack Algorithm = "ftrack"
)

// Algorithms lists every supported algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgorithmCIC, AlgorithmStrawman, AlgorithmLoRa, AlgorithmChoir, AlgorithmFTrack}
}

// Option customises a Receiver.
type Option func(*receiverOptions)

type receiverOptions struct {
	algo    Algorithm
	workers int

	disableSED         bool
	disableCFOFilter   bool
	disablePowerFilter bool

	metrics *Metrics
	tracer  func(Event)
	flight  *obs.FlightScope

	intercept func(Packet) Packet
	panicHook func(stage string, recovered any)
}

// applyOptions resolves options over the defaults.
func applyOptions(options []Option) receiverOptions {
	o := receiverOptions{algo: AlgorithmCIC}
	for _, opt := range options {
		opt(&o)
	}
	if o.algo == "" {
		o.algo = AlgorithmCIC
	}
	return o
}

// WithAlgorithm selects the decoding algorithm (default AlgorithmCIC).
func WithAlgorithm(a Algorithm) Option {
	return func(o *receiverOptions) { o.algo = a }
}

// WithWorkers sets the decoder worker-pool size (default GOMAXPROCS) of
// the Gateway (and so of every Receiver decode). Packets decode
// independently, so throughput scales with workers.
func WithWorkers(n int) Option {
	return func(o *receiverOptions) { o.workers = n }
}

// WithoutSED disables Spectral Edge Difference candidate selection
// (ablation of paper §5.6).
func WithoutSED() Option {
	return func(o *receiverOptions) { o.disableSED = true }
}

// WithoutCFOFilter disables the fractional-CFO candidate filter (ablation
// of paper §5.7, Figs 36–37).
func WithoutCFOFilter() Option {
	return func(o *receiverOptions) { o.disableCFOFilter = true }
}

// WithoutPowerFilter disables the received-power candidate filter
// (ablation of paper §5.7, Figs 36–37).
func WithoutPowerFilter() Option {
	return func(o *receiverOptions) { o.disablePowerFilter = true }
}

// WithDecodeInterceptor installs f on the Gateway's worker output path:
// every decoded packet passes through f before the reorder stage, so a
// deployment can filter, annotate or transform packets in-pipeline. f runs on a worker goroutine and must be safe for
// concurrent calls; a panic inside f is contained by the worker's
// recovery (the packet is delivered undecoded and the panic hook
// fires).
func WithDecodeInterceptor(f func(Packet) Packet) Option {
	return func(o *receiverOptions) { o.intercept = f }
}

// WithPanicHook installs h as the Gateway's panic observer: a panic
// recovered on a decode worker (stage "payload") invokes h with the
// recovered value instead of crashing the process. The packet whose
// decode panicked is delivered undecoded (OK=false) so delivery order
// is preserved. h runs on the panicking goroutine and must not itself
// panic.
func WithPanicHook(h func(stage string, recovered any)) Option {
	return func(o *receiverOptions) { o.panicHook = h }
}

// Receiver decodes LoRa packets — including collided ones — from raw
// complex-baseband samples, by streaming them through a Gateway.
// Receivers are safe for reuse across many buffers; each decode runs its
// own Gateway and worker pool.
type Receiver struct {
	cfg  Config
	opts receiverOptions
}

// Stats returns a snapshot of the registry attached with WithMetrics; the
// zero Stats when none is attached.
func (r *Receiver) Stats() Stats { return r.opts.metrics.Snapshot() }

// NewReceiver builds a Receiver for the configuration.
func NewReceiver(cfg Config, options ...Option) (*Receiver, error) {
	fc, err := cfg.frameConfig()
	if err != nil {
		return nil, err
	}
	o := applyOptions(options)
	if _, err := decoderFor(fc, o, nil); err != nil {
		return nil, err
	}
	return &Receiver{cfg: cfg, opts: o}, nil
}

// Algorithm returns the receiver's decoding algorithm.
func (r *Receiver) Algorithm() Algorithm { return r.opts.algo }

// DecodeBuffer decodes every packet found in an IQ buffer whose first
// sample has absolute index 0.
func (r *Receiver) DecodeBuffer(iq []complex128) ([]Packet, error) {
	return r.DecodeSource(MemorySamples(iq))
}

// DecodeSource decodes every packet found in a SampleSource: it streams
// the source's span through a Gateway, closes it, and returns the records
// sorted by Start. For AlgorithmLoRa the capture lock then keeps only the
// packets a single-packet radio would have locked onto.
func (r *Receiver) DecodeSource(src SampleSource) ([]Packet, error) {
	g, err := newGateway(r.cfg, r.opts)
	if err != nil {
		return nil, err
	}
	g.keepDispatched = r.opts.algo == AlgorithmLoRa
	collected := make(chan []Packet, 1)
	go func() {
		var out []Packet
		for p := range g.Packets() {
			out = append(out, p)
		}
		collected <- out
	}()
	start, end := src.Span()
	buf := make([]complex128, min(g.step, max(end-start, 0)))
	for off := start; off < end; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), end-off)]
		src.Read(chunk, off)
		if _, err := g.Write(chunk); err != nil {
			_ = g.Close()
			<-collected
			return nil, err
		}
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	out := <-collected
	if g.keepDispatched {
		out = captureLocked(g.fcfg, out, g.dispatched)
	}
	for i := range out {
		out[i].Start += start
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out, nil
}

// captureLocked applies standard LoRa's single-demodulator capture lock
// (stdlora.CaptureFilter) to the decoded records. geometry[i] is the
// tracked packet behind out[i], with its header-derived length.
func captureLocked(fc frame.Config, out []Packet, geometry []rx.Packet) []Packet {
	arrivals := make([]*rx.Packet, len(geometry))
	for i := range geometry {
		arrivals[i] = &geometry[i]
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].Start < arrivals[b].Start })
	locked := make(map[*rx.Packet]bool, len(arrivals))
	for _, p := range stdlora.CaptureFilter(fc, arrivals) {
		locked[p] = true
	}
	kept := out[:0]
	for i, p := range out {
		if locked[&geometry[i]] {
			kept = append(kept, p)
		}
	}
	return kept
}

// MemorySamples wraps an IQ buffer (first sample at absolute index 0) as a
// SampleSource.
func MemorySamples(iq []complex128) SampleSource {
	return &rx.MemorySource{Samples: iq}
}

// sourceAdapter bridges the public SampleSource to the internal interface.
type sourceAdapter struct{ s SampleSource }

func (a sourceAdapter) Read(dst []complex128, start int64) { a.s.Read(dst, start) }
func (a sourceAdapter) Span() (int64, int64)               { return a.s.Span() }

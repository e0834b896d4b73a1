// Benchmarks: one per paper figure (the paper's evaluation has no numbered
// tables — every result is a figure) plus kernel micro-benchmarks. The
// figure benchmarks run reduced configurations (short durations, fewer
// rate points) so `go test -bench=.` completes in minutes; use
// cmd/cic-experiments for full-scale regeneration.
package cic_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cic"
	"cic/internal/chirp"
	"cic/internal/core"
	"cic/internal/dsp"
	"cic/internal/eval"
	"cic/internal/experiment"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
)

// benchEvalConfig is a reduced experiment configuration for benchmarks.
func benchEvalConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.PayloadLen = 16
	return cfg
}

// --- Kernel micro-benchmarks ---------------------------------------------

func BenchmarkFFT1024(b *testing.B) {
	fft := dsp.MustPlan(1024)
	buf := make([]complex128, 1024)
	for i := range buf {
		buf[i] = complex(float64(i%7), float64(i%3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.Forward(buf)
	}
}

func BenchmarkDechirpAndFold(b *testing.B) {
	p := chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4}
	gen, err := chirp.NewGenerator(p)
	if err != nil {
		b.Fatal(err)
	}
	m := p.SamplesPerSymbol()
	sym := make([]complex128, m)
	gen.Symbol(sym, 99)
	buf := make([]complex128, m)
	spec := make(dsp.Spectrum, p.ChipCount())
	fft := dsp.MustPlan(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Dechirp(buf, sym)
		fft.Forward(buf)
		dsp.FoldMagnitude(spec, buf, p.ChipCount(), p.OSR)
	}
}

func BenchmarkPHYEncodeDecode(b *testing.B) {
	cfg := phy.Config{SF: 8, CR: phy.CR45, HasCRC: true}
	payload := make([]byte, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syms, err := phy.Encode(payload, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := phy.Decode(syms, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCollisionSource builds a reusable n-packet collision air.
func benchCollisionSource(b testing.TB, n int) (rx.SampleSource, []*rx.Packet, frame.Config) {
	b.Helper()
	cfg := benchEvalConfig().Frame
	symSamples := int64(cfg.Chirp.SamplesPerSymbol())
	var ems []cic.Emission
	pub := cic.DefaultConfig()
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < n; i++ {
		payload := make([]byte, 20)
		rng.Read(payload)
		ems = append(ems, cic.Emission{
			Payload:     payload,
			StartSample: 4096 + int64(i)*9*symSamples + int64(rng.Intn(int(symSamples))),
			SNR:         22 + 6*rng.Float64(),
			CFO:         (2*rng.Float64() - 1) * 9150,
		})
	}
	src, err := cic.SimulateCollision(pub, ems, 5)
	if err != nil {
		b.Fatal(err)
	}
	adapted := adaptedSource{src}
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pkts := det.ScanDownchirp(adapted)
	if len(pkts) == 0 {
		b.Fatal("no packets detected for benchmark")
	}
	return adapted, pkts, cfg
}

type adaptedSource struct{ s cic.SampleSource }

func (a adaptedSource) Read(dst []complex128, start int64) { a.s.Read(dst, start) }
func (a adaptedSource) Span() (int64, int64)               { return a.s.Span() }

func BenchmarkCICSymbol3Interferers(b *testing.B) {
	src, pkts, cfg := benchCollisionSource(b, 4)
	dm, err := core.NewDemodulator(cfg, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pkt := pkts[0]
	pkt.NSymbols = 40
	others := pkts[1:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dm.DemodulateSymbol(src, pkt, 20, others)
	}
}

func BenchmarkPreambleScanDownchirp(b *testing.B) {
	src, _, cfg := benchCollisionSource(b, 3)
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ScanDownchirp(src)
	}
}

func BenchmarkFullReceive3Packets(b *testing.B) {
	src, _, _ := benchCollisionSource(b, 3)
	recv, err := cic.NewReceiver(cic.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recv.DecodeSource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamTrace builds the 3-packet-collision IQ trace BenchmarkGatewayStream
// feeds through the gateway.
func benchStreamTrace(b testing.TB) (cic.Config, []complex128) {
	b.Helper()
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	sym := int64(cfg.SamplesPerSymbol())
	rng := rand.New(rand.NewSource(53))
	var ems []cic.Emission
	for i := 0; i < 3; i++ {
		payload := make([]byte, 20)
		rng.Read(payload)
		ems = append(ems, cic.Emission{
			Payload:     payload,
			StartSample: 4096 + int64(i)*11*sym + int64(rng.Intn(int(sym))),
			SNR:         23 + 4*rng.Float64(),
			CFO:         (2*rng.Float64() - 1) * 8000,
		})
	}
	src, err := cic.SimulateCollision(cfg, ems, 5)
	if err != nil {
		b.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)
	return cfg, iq
}

// benchStreamOnce pushes the trace through one freshly built gateway and
// returns the number of CRC-clean packets.
func benchStreamOnce(b testing.TB, cfg cic.Config, iq []complex128, options ...cic.Option) int {
	gw, err := cic.NewGateway(cfg, options...)
	if err != nil {
		b.Fatal(err)
	}
	return streamThroughGateway(b, gw, iq)
}

// streamThroughGateway writes the trace through an already-built gateway in
// streaming chunks and Closes it, returning the number of CRC-clean packets.
// Separated from construction so the throughput benchmark can time only the
// steady-state ingest path.
func streamThroughGateway(b testing.TB, gw *cic.Gateway, iq []complex128) int {
	const chunk = 8192
	drained := make(chan int, 1)
	go func() {
		n := 0
		for p := range gw.Packets() {
			if p.OK {
				n++
			}
		}
		drained <- n
	}()
	for off := 0; off < len(iq); off += chunk {
		end := off + chunk
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			b.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		b.Fatal(err)
	}
	n := <-drained
	if n == 0 {
		b.Fatal("gateway decoded nothing")
	}
	return n
}

// BenchmarkGatewayStream measures streaming ingest throughput (samples/sec)
// through the Gateway's pipelined decode path on a 3-packet-collision trace
// at 1, 4 and GOMAXPROCS payload workers. The "overhead" sub-benchmark
// interleaves uninstrumented and fully instrumented (WithMetrics +
// WithFlightScope) runs — alternating which side goes first so warm-state
// bias cancels — and reports the summed-time delta as overhead_%. The 2%
// budget is asserted only when the run can resolve it: >=10 iterations
// AND the paired ratios' standard error under 0.75% (a loaded host fails
// that precision check and gets a report-only run instead of a
// noise-driven flake; smoke runs such as `make ci`'s -benchtime=1x are
// likewise report-only).
func BenchmarkGatewayStream(b *testing.B) {
	cfg, iq := benchStreamTrace(b)

	counts := []int{1, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 4 {
		counts = append(counts, gmp)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(iq) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Keep construction (plans, arenas, worker spin-up) off the
				// timer and out of allocs/op: the benchmark measures the
				// steady-state ingest path, Write through Close-flush.
				b.StopTimer()
				gw, err := cic.NewGateway(cfg, cic.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				streamThroughGateway(b, gw, iq)
			}
			b.ReportMetric(float64(len(iq))*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
	b.Run("overhead", func(b *testing.B) {
		// The instrumented side carries the full telemetry surface a
		// cic-gatewayd session attaches: the shared metrics registry plus
		// a flight-recorder scope capturing every emit. Each iteration
		// times the two sides back to back (alternating which goes first,
		// so warm-cache bias cancels) and contributes one paired ratio;
		// the reported figure is the median ratio. Pairing cancels the
		// slow scheduler/thermal drift of a shared host, which otherwise
		// dwarfs the per-packet atomics being measured.
		reg := cic.NewMetrics()
		scope := cic.NewFlightRecorder(1024).Scope("bench-cid", "bench")
		plainSide := func() {
			benchStreamOnce(b, cfg, iq, cic.WithWorkers(1))
		}
		instrSide := func() {
			benchStreamOnce(b, cfg, iq, cic.WithWorkers(1),
				cic.WithMetrics(reg), cic.WithFlightScope(scope))
		}
		var plain, instrumented time.Duration
		ratios := make([]float64, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var dp, di time.Duration
			if i%2 == 0 {
				t0 := time.Now()
				plainSide()
				dp = time.Since(t0)
				t0 = time.Now()
				instrSide()
				di = time.Since(t0)
			} else {
				t0 := time.Now()
				instrSide()
				di = time.Since(t0)
				t0 = time.Now()
				plainSide()
				dp = time.Since(t0)
			}
			plain += dp
			instrumented += di
			ratios = append(ratios, di.Seconds()/dp.Seconds())
		}
		pct := 100 * (instrumented - plain).Seconds() / plain.Seconds()
		b.ReportMetric(pct, "overhead_%")
		// Only enforce the budget when the run could actually resolve a
		// 2% effect: enough iterations, and the paired ratios dispersed
		// tightly enough that the mean's standard error is well under the
		// budget. A loaded CI host fails that precision check and gets a
		// report-only run rather than a noise-driven flake.
		if b.N >= 10 && stderrPct(ratios) < 0.75 && pct > 2.0 {
			b.Fatalf("instrumented gateway %.2f%% slower than nil-registry path (budget 2%%)", pct)
		}
	})
}

// stderrPct is the standard error of the mean of the paired
// instrumented/plain ratios, in percent — the overhead sub-benchmark's
// measurement-precision estimate.
func stderrPct(ratios []float64) float64 {
	n := float64(len(ratios))
	if n < 2 {
		return math.Inf(1)
	}
	var mean float64
	for _, r := range ratios {
		mean += r
	}
	mean /= n
	var ss float64
	for _, r := range ratios {
		ss += (r - mean) * (r - mean)
	}
	return 100 * math.Sqrt(ss/(n-1)/n)
}

// --- Figure benchmarks -----------------------------------------------------

func benchFigure(b *testing.B, run func(eval.Config) (eval.Figure, error)) {
	cfg := benchEvalConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig12to14Spectra(b *testing.B) { benchFigure(b, eval.SpectraDemo) }
func BenchmarkFig15Heisenberg(b *testing.B)  { benchFigure(b, eval.Heisenberg) }
func BenchmarkFig17Cancellation(b *testing.B) {
	benchFigure(b, eval.Cancellation)
}
func BenchmarkFig19to20PreambleClutter(b *testing.B) { benchFigure(b, eval.PreambleClutter) }
func BenchmarkFig22to26DeploymentMaps(b *testing.B)  { benchFigure(b, eval.DeploymentMaps) }
func BenchmarkFig27SNRDistribution(b *testing.B)     { benchFigure(b, eval.SNRDistribution) }

// benchSweep runs a reduced one-trial sweep (the harness path the
// committed throughput, detection and ablation figures take) and
// aggregates it. No receivers means the config default.
func benchSweep(b *testing.B, metric, dep string, receivers ...string) {
	rxs, err := json.Marshal(receivers)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := experiment.Parse([]byte(fmt.Sprintf(`{
		"version": 1, "name": "bench", "kind": "sweep", "metric": %q,
		"channel": {"sf": 8, "bandwidth_hz": 250000, "osr": 4, "cr": "4/5"},
		"deployments": [{"base": %q}],
		"rates": [40], "duration_s": 0.5, "payload_len": 16,
		"receivers": %s,
		"seeds": {"base": 1}
	}`, metric, dep, rxs)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(context.Background(), cfg, experiment.RunnerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		figs, err := experiment.Aggregate(cfg, res.Results)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 || len(figs[0].Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig28ThroughputD1(b *testing.B) { benchSweep(b, "throughput", "D1") }
func BenchmarkFig29ThroughputD2(b *testing.B) { benchSweep(b, "throughput", "D2") }
func BenchmarkFig30ThroughputD3(b *testing.B) { benchSweep(b, "throughput", "D3") }
func BenchmarkFig31ThroughputD4(b *testing.B) { benchSweep(b, "throughput", "D4") }

func BenchmarkFig32DetectionD1(b *testing.B) { benchSweep(b, "detection", "D1") }
func BenchmarkFig33DetectionD2(b *testing.B) { benchSweep(b, "detection", "D2") }
func BenchmarkFig34DetectionD3(b *testing.B) { benchSweep(b, "detection", "D3") }
func BenchmarkFig35DetectionD4(b *testing.B) { benchSweep(b, "detection", "D4") }

// ablationReceivers are the four CIC feature variants of Figs 36–37.
var ablationReceivers = []string{"CIC", "CIC-(CFO)", "CIC-(Power)", "CIC-(Power,CFO)"}

func BenchmarkFig36AblationD1(b *testing.B) { benchSweep(b, "throughput", "D1", ablationReceivers...) }
func BenchmarkFig37AblationD4(b *testing.B) { benchSweep(b, "throughput", "D4", ablationReceivers...) }

func BenchmarkFig38TemporalProximity(b *testing.B) {
	benchFigure(b, func(cfg eval.Config) (eval.Figure, error) {
		cfg.PayloadLen = 8 // 10 offsets × 2 packets per iteration: keep it lean
		return eval.TemporalProximity(cfg)
	})
}

// --- Design-choice ablation benchmarks --------------------------------------
// These measure the throughput cost/benefit of the design decisions called
// out in DESIGN.md §6 on a fixed 4-packet collision: the optimal ICSS vs
// the strawman, SED on/off, and the §5.7 filters on/off. The reported
// metric of interest is `decoded/op` (packets recovered per run).

func benchAblation(b *testing.B, opts ...cic.Option) {
	src, _, _ := benchCollisionSource(b, 4)
	recv, err := cic.NewReceiver(cic.DefaultConfig(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	decoded := 0
	for i := 0; i < b.N; i++ {
		pkts, err := recv.DecodeSource(src)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			if p.OK {
				decoded++
			}
		}
	}
	b.ReportMetric(float64(decoded)/float64(b.N), "decoded/op")
}

func BenchmarkAblationFullCIC(b *testing.B) { benchAblation(b) }
func BenchmarkAblationStrawman(b *testing.B) {
	benchAblation(b, cic.WithAlgorithm(cic.AlgorithmStrawman))
}
func BenchmarkAblationNoSED(b *testing.B) { benchAblation(b, cic.WithoutSED()) }
func BenchmarkAblationNoFilters(b *testing.B) {
	benchAblation(b, cic.WithoutCFOFilter(), cic.WithoutPowerFilter())
}

// Command perfbench is the CIC gateway's end-to-end benchmark. It
// generates LoRa air from a seed, feeds it to the system through its
// public entry points (a cic.Gateway in process, or two server.Server
// backends behind a cluster.Router over loopback TCP), checks every
// decoded record against the ground truth, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"rtf": {"value": 4.2, "unit": "x"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, e.g.
//
//	bash perfbench/run.sh --workload dense-k8 --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"cic"
)

// workload is one named traffic shape.
type workload struct {
	name     string
	stations int
	open     bool // open loop at 1× air rate (else closed loop)
	shape    shape
	// blockSeconds is the air rendered per station; a closed loop
	// replays it as often as the run needs.
	blockSeconds func(runSeconds float64) float64
}

func fixed(s float64) func(float64) float64 { return func(float64) float64 { return s } }

var workloads = []*workload{
	// Mostly noise: about one packet in five overlaps another, so the
	// serial detector scan and header dispatch do most of the work.
	{name: "sparse-sf8", stations: 1, shape: poisson(2, 6, 26), blockSeconds: fixed(96)},
	// Eight-packet clusters within a 40-symbol span: per-symbol ICSS,
	// SED, gates and fine-grid work dominate.
	{name: "dense-k8", stations: 1, shape: clusters(8, 40, 16, 6, 3), blockSeconds: fixed(32)},
	// Two stations paced at 1× air through the router: wire codec,
	// session, sink publish and fan-in set the latency.
	{name: "routed-2st", stations: 2, open: true, shape: poisson(5, 6, 26), blockSeconds: func(s float64) float64 { return s }},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"rtf", "x"},
	{"yield", "fraction"},
	{"ok_precision", "fraction"},
	{"emit_p50_ms", "ms"},
	{"emit_p95_ms", "ms"},
	{"cpu_s_per_air_s", "s/s"},
	{"alloc_mb_per_air_s", "MB/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"rx.scan_s_per_air_s", "s/s"},
	{"rx.candidates_per_air_s", "1/s"},
	{"rx.candidate_yield", "fraction"},
	{"rx.preamble_recall", "fraction"},
	{"rx.header_fail_frac", "fraction"},
	{"cic.write_s_per_air_s", "s/s"},
	{"cic.dispatch_ms_per_packet", "ms"},
	{"cic.write_wait_s_per_air_s", "s/s"},
	{"cic.workers_busy_frac", "fraction"},
	{"cic.detect_to_emit_ms_p50", "ms"},
	{"cic.detect_to_emit_ms_p95", "ms"},
	{"cic.reorder_wait_ms_p50", "ms"},
	{"cic.stage_cpu_coverage", "fraction"},
	{"core.demod_ms_per_packet", "ms"},
	{"core.symbol_us", "us"},
	{"core.symbol_us_p95", "us"},
	{"core.icss_subsymbols_per_symbol", "count"},
	{"core.gate_reject_frac", "fraction"},
	{"phy.decode_us_per_packet", "us"},
	{"phy.crc_fail_frac", "fraction"},
	{"phy.chase_recovered_frac", "fraction"},
	{"server.writeiq_ms_p50", "ms"},
	{"server.writeiq_ms_p95", "ms"},
	{"server.iq_codec_us_per_frame", "us"},
	{"server.wire_bytes_per_air_s", "B/s"},
	{"server.publish_bytes_per_record", "B"},
	{"server.rejects", "count"},
	{"cluster.fanin_ms_p50", "ms"},
	{"cluster.fanin_ms_p95", "ms"},
	{"cluster.failovers", "count"},
	{"cluster.dedup_suppressed", "count"},
	{"runtime.gc_cycles_per_air_s", "1/s"},
	{"runtime.heap_peak_mb", "MB"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.gen_late_max_ms", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.false_ok", "count"},
	{"bench.emit_samples", "count"},
}

// setupReps is how many times a run builds the system under test; it
// reports the median, since one build takes milliseconds and some
// builds stall on memory.
const setupReps = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sparse-sf8, dense-k8 or routed-2st")
	seed := fs.Int64("seed", 1, "input seed (same seed, same IQ)")
	seconds := fs.Float64("seconds", 10, "measured wall time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "traced run: span output file (default .bench_build/spans/<workload>-<seed>.ndjson)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sparse-sf8|dense-k8|routed-2st), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.ndjson", w.name, *seed)
	}
	in, err := generate(w, *seed, int64(w.blockSeconds(*seconds)*1e6))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: generate: %v\n", err)
		return 1
	}
	n := 0
	for _, st := range in.stations {
		n += len(st.sched)
	}
	fmt.Fprintf(stdout, "input %s seed=%d stations=%d emissions/block=%d sha256=%s\n", w.name, *seed, len(in.stations), n, in.digest)
	var res *result
	if *trace == 0 {
		res, err = measure(in, *seconds)
	} else {
		res, err = traced(in, *seconds, *spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout, stderr)
	return 0
}

// result is one run's scored output.
type result struct {
	v       *verdict
	metrics map[string]float64
	defs    []metricDef
	notes   []string
}

func (r *result) print(stdout, stderr io.Writer) {
	for _, s := range r.v.violations {
		fmt.Fprintf(stderr, "oracle: %s\n", s)
	}
	for _, s := range r.v.falseOKs {
		fmt.Fprintf(stderr, "false ok: %s\n", s)
	}
	for _, s := range r.notes {
		fmt.Fprintf(stdout, "%s\n", s)
	}
	fmt.Fprintf(stdout, "oracle offered=%d matched=%d ok_records=%d false_ok=%d violations=%d\n",
		r.v.offered, r.v.matched, r.v.okRecords, r.v.falseOK, len(r.v.violations))
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.v.correct(), Attempted: max(1, r.v.offered), Metrics: map[string]mv{}}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	for _, d := range r.defs {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
		out.Metrics[d.name] = mv{r.metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(out) // plain floats and strings always marshal
	fmt.Fprintf(stdout, "%s\n", b)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// execute runs the workload once, untraced unless tr is set, and checks
// its output. gwOpts reach every gateway of the system under test.
func execute(in *input, seconds float64, tr *tracer, gwOpts func(i int) []cic.Option) (*runOut, *verdict, error) {
	v := &verdict{}
	if !in.w.open {
		var opts []cic.Option
		if gwOpts != nil {
			opts = gwOpts(0)
		}
		out, err := runClosed(in, seconds, opts, tr)
		if err != nil {
			return nil, nil, err
		}
		in.check(v, in.stations[0], out.written[0], out.recs[0])
		v.settle()
		return out, v, nil
	}
	r, err := startRig(tr != nil, gwOpts)
	if err != nil {
		return nil, nil, err
	}
	out, err := runOpen(r, in, seconds, tr)
	if serr := r.shutdown(); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return nil, nil, err
	}
	for i, st := range in.stations {
		in.check(v, st, out.written[i], out.recs[i])
		want, err := referenceDecode(in, st, out.ids[i], out.written[i])
		if err != nil {
			return nil, nil, fmt.Errorf("reference decode: %w", err)
		}
		checkExactlyOnce(v, out.ids[i], out.recs[i], want)
	}
	v.settle()
	return out, v, nil
}

// emitLatencyMs is, for every record, the air time from its packet's
// last sample to the record's arrival.
func emitLatencyMs(in *input, out *runOut) []float64 {
	var lat []float64
	for i, st := range in.stations {
		for _, r := range out.recs[i] {
			lat = append(lat, out.latencyMs(r, in.airEnd(st, r.Start)))
		}
	}
	return lat
}

// measure is the untraced run behind the end-to-end metrics.
func measure(in *input, seconds float64) (*result, error) {
	var setup []float64
	var err error
	if in.w.open {
		setup, err = setupRig(setupReps)
	} else {
		setup, err = setupGateway(in.cfg, setupReps)
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	out, v, err := execute(in, seconds, nil, nil)
	if err != nil {
		return nil, err
	}
	air := float64(out.timed) / in.cfg.SampleRate()
	lat := emitLatencyMs(in, out)
	p50, ok50 := percentile(lat, 0.50)
	p95, ok95 := percentile(lat, 0.95)
	if !ok50 || !ok95 {
		v.violate("%d records: too few for an emit p95 with %d samples beyond it", len(lat), minTail)
	}
	segRate, segCPU, segAlloc := segmentMedians(out.segs)
	rtf := segRate / in.cfg.SampleRate()
	if in.w.open {
		// Paced air: the rate that shows falling behind is the whole
		// run's, drain included.
		rtf = air / out.wall.Seconds()
	}
	res := &result{v: v, defs: endToEnd, metrics: map[string]float64{
		"rtf":                rtf,
		"yield":              ratio(float64(v.matched), float64(v.offered)),
		"ok_precision":       ratio(float64(v.okRecords-v.falseOK), float64(v.okRecords)),
		"emit_p50_ms":        p50,
		"emit_p95_ms":        p95,
		"cpu_s_per_air_s":    segCPU * in.cfg.SampleRate(),
		"alloc_mb_per_air_s": segAlloc * in.cfg.SampleRate() / 1e6,
		"setup_s":            median(setup),
	}}
	res.notes = append(res.notes, fmt.Sprintf("run air_s=%.3f wall_s=%.3f records=%d setup_reps=%d whole-run rtf=%.4f cpu_s_per_air_s=%.4f alloc_mb_per_air_s=%.4f",
		air, out.wall.Seconds(), len(lat), len(setup), air/out.wall.Seconds(), out.cpu.Seconds()/air, float64(out.alloc)/1e6/air))
	for i := 1; i < len(out.segs); i++ {
		p, s := out.segs[i-1], out.segs[i]
		a := float64(s.air - p.air)
		res.notes = append(res.notes, fmt.Sprintf("segment %d rtf=%.4f cpu_s_per_air_s=%.4f alloc_mb_per_air_s=%.4f",
			i, a/s.t.Sub(p.t).Seconds()/in.cfg.SampleRate(), (s.cpu-p.cpu).Seconds()/a*in.cfg.SampleRate(), float64(s.alloc-p.alloc)/a*in.cfg.SampleRate()/1e6))
	}
	return res, nil
}

// Command cic-bench converts `go test -bench` output on stdin into the
// JSON shape used by the repository's BENCH_*.json records (see
// BENCH_gateway.json). It parses the standard benchmark result lines plus
// any custom metrics reported via b.ReportMetric (samples/sec,
// overhead_%, decoded/op, ...), and stamps the host environment.
//
// Usage:
//
//	go test -run '^$' -bench GatewayStream -benchtime=5x ./ | cic-bench -out BENCH_gateway.json
//
// With -gate it runs in regression-gate mode instead of record mode: the
// fresh bench output on stdin is compared against a committed BENCH_*.json
// record and the process exits non-zero when a benchmark's allocs/op or
// bytes/op grows past the committed value's slack (default max(+10%, +5),
// applied to each — allocation counts and sizes are deterministic, so this
// gate is CI-safe on any machine).
// Wall-clock gating is off by default because ns/op depends on the host;
// enable it locally with -gate-time-ratio.
//
//	go test -run '^$' -bench GatewayStream -benchtime=10x ./ | cic-bench -gate BENCH_gateway.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`

	// Optional metrics, present when the benchmark reports them.
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	MBPerSec      float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`
	OverheadPct   float64 `json:"overhead_pct,omitempty"`
	DecodedPerOp  float64 `json:"decoded_per_op,omitempty"`
}

type record struct {
	Benchmark   string         `json:"benchmark"`
	Description string         `json:"description"`
	Recorded    string         `json:"recorded"`
	Environment map[string]any `json:"environment"`
	Results     []result       `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		benchmark = flag.String("benchmark", "BenchmarkGatewayStream", "benchmark family name for the record header")
		desc      = flag.String("description", "Streaming ingest throughput through the Gateway's pipelined decode path on a 3-packet-collision trace (make bench-json).", "record description")
		note      = flag.String("note", "", "free-form environment note")
		out       = flag.String("out", "", "output path (default stdout)")

		gate          = flag.String("gate", "", "committed BENCH_*.json to gate fresh stdin results against (regression-gate mode; no record is written)")
		gateSlackPct  = flag.Float64("gate-alloc-slack-pct", 10, "allowed allocs/op and bytes/op growth over the committed value, percent")
		gateSlackAbs  = flag.Int64("gate-alloc-slack-abs", 5, "allowed allocs/op and bytes/op growth over the committed value, absolute (the effective budget is the larger of the two slacks)")
		gateTimeRatio = flag.Float64("gate-time-ratio", 0, "when >0, fail if ns/op exceeds the committed ns/op by more than this factor (machine-sensitive; off by default)")
	)
	flag.Parse()

	rec := record{
		Benchmark:   *benchmark,
		Description: *desc,
		Recorded:    time.Now().Format("2006-01-02"),
		Environment: map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		},
	}
	if *note != "" {
		rec.Environment["note"] = *note
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Echo the raw output so the tool can sit at the end of a pipe
		// without hiding failures.
		fmt.Fprintln(os.Stderr, line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.Environment["cpu"] = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseBenchLine(line)
		if ok {
			rec.Results = append(rec.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rec.Results) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}

	if *gate != "" {
		return runGate(*gate, rec.Results, *gateSlackPct, *gateSlackAbs, *gateTimeRatio)
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
	return nil
}

// runGate compares fresh results against the committed record at path.
// The authoritative checks are allocs/op and bytes/op: Go's allocation
// accounting is deterministic per code path, so the budget
// max(committed*(1+slackPct/100), committed+slackAbs), applied to each,
// catches real regressions without flaking across CI hosts. When
// timeRatio > 0 a wall-clock check (ns/op <= committed*timeRatio) is
// applied as well.
func runGate(path string, fresh []result, slackPct float64, slackAbs int64, timeRatio float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base record
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	committed := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		committed[r.Name] = r
	}

	var failures []string
	checked := 0
	for _, n := range fresh {
		o, ok := committed[n.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gate: %-45s not in %s (new benchmark, skipped)\n", n.Name, path)
			continue
		}
		checked++
		for _, c := range []struct {
			unit             string
			fresh, committed int64
		}{
			{"allocs/op", n.AllocsPerOp, o.AllocsPerOp},
			{"B/op", n.BytesPerOp, o.BytesPerOp},
		} {
			budget := int64(float64(c.committed) * (1 + slackPct/100))
			if abs := c.committed + slackAbs; abs > budget {
				budget = abs
			}
			if c.fresh > budget {
				failures = append(failures, fmt.Sprintf("%s: %d %s, committed %d (budget %d)",
					n.Name, c.fresh, c.unit, c.committed, budget))
			} else {
				fmt.Fprintf(os.Stderr, "gate: %-45s %10d %-9s (budget %d) ok\n", n.Name, c.fresh, c.unit, budget)
			}
		}
		if timeRatio > 0 && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*timeRatio {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op, committed %.0f (ratio limit %.2fx)",
				n.Name, n.NsPerOp, o.NsPerOp, timeRatio))
		}
	}
	if checked == 0 {
		return fmt.Errorf("gate: no stdin benchmark overlaps %s — wrong -bench filter or stale record", path)
	}
	for _, o := range base.Results {
		found := false
		for _, n := range fresh {
			if n.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "gate: %-45s in %s but not exercised this run\n", o.Name, path)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "gate: REGRESSION:", f)
		}
		return fmt.Errorf("gate: %d regression(s) vs %s", len(failures), path)
	}
	fmt.Fprintf(os.Stderr, "gate: %d benchmark(s) within budget of %s\n", checked, path)
	return nil
}

// parseBenchLine parses one `BenchmarkName-N  iters  v unit  v unit ...`
// result line.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS suffix Go appends to benchmark names.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "MB/s":
			res.MBPerSec = v
		case "samples/sec":
			res.SamplesPerSec = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		case "overhead_%":
			res.OverheadPct = v
		case "decoded/op":
			res.DecodedPerOp = v
		}
	}
	return res, res.NsPerOp != 0
}

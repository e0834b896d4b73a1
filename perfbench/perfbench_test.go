package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"cic"
	"cic/internal/server"
)

// smallInput renders a short sparse-sf8 block, enough for a second or
// two of closed-loop air.
func smallInput(t *testing.T, seed int64) *input {
	t.Helper()
	in, err := generate(lookup("sparse-sf8"), seed, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDigestFollowsSeed(t *testing.T) {
	a, b, c := smallInput(t, 1), smallInput(t, 1), smallInput(t, 2)
	if a.digest != b.digest {
		t.Errorf("seed 1 gave digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a.digest)
	}
}

// corruptFirstOK is a decode interceptor that flips the last payload
// byte of the first CRC-OK packet, keeping its OK flag.
func corruptFirstOK() cic.Option {
	var done atomic.Bool
	return cic.WithDecodeInterceptor(func(p cic.Packet) cic.Packet {
		if p.OK && done.CompareAndSwap(false, true) {
			p.Payload = append([]byte(nil), p.Payload...)
			p.Payload[len(p.Payload)-1] ^= 0xff
		}
		return p
	})
}

func TestOracle(t *testing.T) {
	in := smallInput(t, 3)
	_, v, err := execute(in, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.correct() || v.falseOK != 0 || v.matched == 0 {
		t.Fatalf("clean run: matched %d false_ok %d violations %v", v.matched, v.falseOK, v.violations)
	}
	_, v, err = execute(in, 1, nil, func(int) []cic.Option { return []cic.Option{corruptFirstOK()} })
	if err != nil {
		t.Fatal(err)
	}
	// One false OK among the few CRC-OK records of a short run is far
	// above what a 16-bit CRC lets through.
	if v.falseOK != 1 || v.correct() {
		t.Fatalf("corrupted run: false_ok %d of %d CRC-OK records, violations %v", v.falseOK, v.okRecords, v.violations)
	}
}

func TestFalseOKLimit(t *testing.T) {
	for _, tc := range []struct {
		falseOK, okRecords int
		ok                 bool
	}{{0, 0, true}, {0, 50, true}, {1, 100, true}, {3, 700, true}, {1, 99, false}, {8, 700, false}} {
		v := &verdict{falseOK: tc.falseOK, okRecords: tc.okRecords}
		v.settle()
		if v.correct() != tc.ok {
			t.Errorf("%d false OKs of %d CRC-OK records: violations %v, want ok=%v", tc.falseOK, tc.okRecords, v.violations, tc.ok)
		}
	}
}

// TestRoutedOracle corrupts one payload inside a routed backend: the
// record is a false OK, and the routed output no longer equals the
// in-process decode of the same air, which fails the run.
func TestRoutedOracle(t *testing.T) {
	in, err := generate(lookup("routed-2st"), 4, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := execute(in, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.correct() || v.falseOK != 0 || v.matched == 0 {
		t.Fatalf("clean run: matched %d false_ok %d violations %v", v.matched, v.falseOK, v.violations)
	}
	_, v, err = execute(in, 3, nil, func(int) []cic.Option { return []cic.Option{corruptFirstOK()} })
	if err != nil {
		t.Fatal(err)
	}
	if v.falseOK < 1 || v.correct() {
		t.Fatalf("corrupted run: false_ok %d, violations %v", v.falseOK, v.violations)
	}
}

func TestExactlyOnce(t *testing.T) {
	want := []server.Record{{Station: "s", Seq: 0, Start: 10}, {Station: "s", Seq: 1, Start: 20}}
	got := func(seqs ...int) []sinkRec {
		var out []sinkRec
		for _, s := range seqs {
			r := want[min(s, 1)]
			r.Seq, r.Session = s, 7
			out = append(out, sinkRec{Record: r})
		}
		return out
	}
	for _, tc := range []struct {
		seqs []int
		ok   bool
	}{{[]int{0, 1}, true}, {[]int{0, 0, 1}, false}, {[]int{0}, false}, {[]int{1}, false}} {
		v := &verdict{}
		checkExactlyOnce(v, "s", got(tc.seqs...), want)
		if v.correct() != tc.ok {
			t.Errorf("seqs %v: violations %v, want ok=%v", tc.seqs, v.violations, tc.ok)
		}
	}
}

func TestPercentileNeedsTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the metric tables in
// step: every name the manifest declares is one the program prints,
// with the same unit, and every workload exists.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest has %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if lookup(w.Name) == nil {
			t.Errorf("manifest workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, d := range got {
			g = append(g, d.Name+" "+d.Unit)
		}
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics differ:\nmanifest %v\nprogram  %v", kind, g, w)
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

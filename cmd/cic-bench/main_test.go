package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkGatewayStream/workers=4-8  5  1234.5 ns/op  7.5 MB/s  12 B/op  3 allocs/op"
	res, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("valid line rejected")
	}
	if res.Name != "BenchmarkGatewayStream/workers=4" {
		t.Errorf("name %q", res.Name)
	}
	if res.Iterations != 5 || res.NsPerOp != 1234.5 || res.MBPerSec != 7.5 ||
		res.BytesPerOp != 12 || res.AllocsPerOp != 3 {
		t.Errorf("fields: %+v", res)
	}
	for _, bad := range []string{
		"",
		"PASS",
		"ok  \tcic\t1.2s",
		"BenchmarkX-8 notanumber 1 ns/op",
		"BenchmarkX-8 5 xyz ns/op",
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

// FuzzParseBenchLine hardens the benchmark-output parser against
// arbitrary text: `go test -bench` output is unstructured, and a daemon
// log or a partial pipe write can hand it any byte sequence. The parser
// must stay total (no panics), deterministic, and only accept lines
// that actually carry a ns/op measurement.
func FuzzParseBenchLine(f *testing.F) {
	f.Add("BenchmarkFFT1024-8  100  50.1 ns/op")
	f.Add("BenchmarkGatewayStream/workers=1-8 3 2.5 ns/op 1.1 MB/s 0 B/op 0 allocs/op")
	f.Add("BenchmarkOverhead-4 10 9 ns/op 1.5 overhead_% 0.5 decoded/op")
	f.Add("BenchmarkX- 1 2 ns/op")
	f.Add("goos: linux")
	f.Add("  \t  ")
	f.Add("BenchmarkY-8 9223372036854775807 1 ns/op")
	f.Fuzz(func(t *testing.T, line string) {
		res, ok := parseBenchLine(line)
		res2, ok2 := parseBenchLine(line)
		if ok != ok2 || res != res2 {
			t.Fatalf("non-deterministic parse of %q", line)
		}
		if !ok {
			return
		}
		if res.NsPerOp == 0 {
			t.Errorf("accepted %q without ns/op", line)
		}
		if res.Name == "" {
			t.Errorf("accepted %q with empty name", line)
		}
		if strings.ContainsAny(res.Name, " \t\n") {
			t.Errorf("name %q contains whitespace (line %q)", res.Name, line)
		}
	})
}

// TestRunGateBudgets: the gate holds allocs/op and bytes/op each to
// max(+10%, +5) of the committed record.
func TestRunGateBudgets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	rec := `{"results":[{"name":"BenchmarkX","iterations":10,"ns_per_op":1,"allocs_per_op":80,"bytes_per_op":3000000}]}`
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allocs, bytes int64
		ok            bool
	}{
		{80, 3000000, true},
		{88, 3300000, true},  // both at their +10% budget
		{89, 3000000, false}, // allocs past budget
		{80, 3300001, false}, // bytes past budget
		{10, 100, true},      // shrinking never fails
	} {
		fresh := []result{{Name: "BenchmarkX", NsPerOp: 1, AllocsPerOp: tc.allocs, BytesPerOp: tc.bytes}}
		if err := runGate(path, fresh, 10, 5, 0); (err == nil) != tc.ok {
			t.Errorf("allocs %d bytes %d: err %v, want ok=%v", tc.allocs, tc.bytes, err, tc.ok)
		}
	}
}

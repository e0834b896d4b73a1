package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cic/internal/eval"
)

func TestRunConfigLightweightFigures(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"heisenberg", "snr", "maps", "cancellation"} {
		path := filepath.Join(dir, fig+".json")
		cfg := `{"version": 1, "name": "` + fig + `", "kind": "figure", "figure": "` + fig + `",
			"payload_len": 8, "seeds": {"base": 1}}`
		if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		figs, err := runConfig(configOptions{path: path})
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if len(figs) == 0 {
			t.Fatalf("%s produced no figures", fig)
		}
	}
	if _, err := runConfig(configOptions{path: filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing config accepted")
	}
}

func TestEmitTableAndCSV(t *testing.T) {
	fig := eval.Figure{
		ID: "figT", Title: "emit test", XLabel: "x", YLabel: "y",
		Series: []eval.Series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
	}
	dir := t.TempDir()
	if err := emit([]eval.Figure{fig}, dir, "table", true); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(dir + "/figT.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("figT")) {
		t.Error("CSV content missing header")
	}
	svgData, err := readFile(dir + "/figT.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(svgData, []byte("<svg")) || !bytes.Contains(svgData, []byte("circle")) {
		t.Error("SVG content malformed")
	}
	// stdout paths (no outdir) must not error either.
	if err := emit([]eval.Figure{fig}, "", "csv", false); err != nil {
		t.Fatal(err)
	}
	if err := emit([]eval.Figure{fig}, "", "table", false); err != nil {
		t.Fatal(err)
	}
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

package eval

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"cic/internal/sim"
)

// quickConfig shrinks the experiment for test runtime.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.PayloadLen = 16
	return cfg
}

func TestFigureCSVAndTable(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var csv bytes.Buffer
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.Contains(out, "x,a,b") || !strings.Contains(out, "1,10,30") {
		t.Errorf("CSV output wrong:\n%s", out)
	}
	var tbl bytes.Buffer
	if err := f.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "FIGX") {
		t.Error("table missing header")
	}
	empty := Figure{ID: "e"}
	if err := empty.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
}

// TestFigureCSVQuoting: a series name holding a comma stays one column,
// so every record parses to the header's field count and the name
// round-trips through encoding/csv.
func TestFigureCSVQuoting(t *testing.T) {
	f := Figure{
		ID: "fig36", Title: "ablation, quoted", XLabel: "offered pkts/s", YLabel: "y",
		Series: []Series{
			{Name: "CIC", X: []float64{5, 10}, Y: []float64{4, 8}},
			{Name: "CIC-(Power,CFO)", X: []float64{5, 10}, Y: []float64{3, 6}, YErr: []float64{0.5, 1}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# fig36: ablation, quoted\n") {
		t.Errorf("comment line lost:\n%s", buf.String())
	}
	r := csv.NewReader(&buf)
	r.Comment = '#'
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want header + 2 rows:\n%q", len(recs), recs)
	}
	want := []string{"offered pkts/s", "CIC", "CIC-(Power,CFO)", "CIC-(Power,CFO) ci95"}
	if strings.Join(recs[0], "|") != strings.Join(want, "|") {
		t.Errorf("header %q, want %q", recs[0], want)
	}
	for i, rec := range recs {
		if len(rec) != len(recs[0]) {
			t.Errorf("record %d has %d fields, header has %d: %q", i, len(rec), len(recs[0]), rec)
		}
	}
}

func TestFigureCIColumns(t *testing.T) {
	f := Figure{
		ID: "figE", Title: "ci demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}, YErr: []float64{0.5, 0.25}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var csv bytes.Buffer
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.Contains(out, "x,a,a ci95,b") {
		t.Errorf("CSV header missing ci95 column:\n%s", out)
	}
	if !strings.Contains(out, "1,10,0.5,30") {
		t.Errorf("CSV row missing ci95 value:\n%s", out)
	}
	var tbl bytes.Buffer
	if err := f.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "10.000±0.500") {
		t.Errorf("table missing ± interval:\n%s", tbl.String())
	}
	var svg bytes.Buffer
	if err := f.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	// Nil-YErr figures must render byte-identically to the pre-YErr code:
	// strip the error widths and check no extra columns or marks appear.
	f.Series[0].YErr = nil
	csv.Reset()
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "ci95") {
		t.Error("nil YErr still emitted a ci95 column")
	}
}

// TestReceiverByName: every receiver name a committed config uses builds
// and reports its name, and an unknown name is rejected. The names are
// listed, not read from the registry, so losing one fails here.
func TestReceiverByName(t *testing.T) {
	cfg := quickConfig()
	names := append(ReceiverNames(), "CIC-(CFO)", "CIC-(Power)", "CIC-(Power,CFO)", "Strawman-CIC")
	if len(names) != len(receiverOptions) {
		t.Errorf("%d names checked, %d registered", len(names), len(receiverOptions))
	}
	for _, name := range names {
		r, err := ReceiverByName(cfg.Frame, 1, name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("ReceiverByName(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := ReceiverByName(cfg.Frame, 1, "nonesuch", nil); err == nil {
		t.Error("unknown receiver accepted")
	}
}

// TestDefaultReceiversAndVariants: the paper's comparison set is what
// ReceiverNames lists; TestReceiverByName builds it and the variants.
func TestDefaultReceiversAndVariants(t *testing.T) {
	names := map[string]bool{}
	for _, name := range ReceiverNames() {
		names[name] = true
	}
	for _, want := range []string{"CIC", "FTrack", "Choir", "LoRa"} {
		if !names[want] {
			t.Errorf("missing receiver %s", want)
		}
	}
}

func TestDetectionScanners(t *testing.T) {
	cfg := quickConfig()
	scanners, err := DetectionScanners(cfg.Frame, cfg.PayloadLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanners) != 3 {
		t.Fatalf("%d scanners", len(scanners))
	}
	nw, err := sim.NewNetwork(cfg.Frame, sim.D1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const duration = 1.0
	run, err := nw.BuildRun(20, duration, cfg.PayloadLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scanners {
		pkts := sc.Scan(run.Source)
		score := sim.ScoreDetections(run, pkts, duration)
		if score.Detected == 0 {
			t.Errorf("scanner %s detected nothing", sc.Name)
		}
	}
}

func TestHeisenbergFigure(t *testing.T) {
	fig, err := Heisenberg(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig15" || len(fig.Series) != 4 {
		t.Fatalf("fig15 shape: %s %d series", fig.ID, len(fig.Series))
	}
	// The full-window spectrum must resolve all five symbols; the Ts/8
	// window must resolve fewer distinct peaks (Heisenberg).
	specFull := seriesToSpectrum(fig.Series[0])
	spec8 := seriesToSpectrum(fig.Series[3])
	full := ResolvablePeaks(specFull, 0.3)
	short := ResolvablePeaks(spec8, 0.3)
	if full < 5 {
		t.Errorf("full window resolves %d peaks, want >= 5", full)
	}
	if short >= full {
		t.Errorf("Ts/8 window resolves %d peaks, full window %d: no resolution loss?", short, full)
	}
}

func seriesToSpectrum(s Series) []float64 {
	out := make([]float64, len(s.Y))
	copy(out, s.Y)
	return out
}

func TestCancellationFigure(t *testing.T) {
	fig, err := Cancellation(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig17" || len(fig.Series) == 0 {
		t.Fatal("fig17 empty")
	}
	// Far-in-time, far-in-frequency interferers must cancel much better
	// than near ones (the Fig 17 gradient).
	farSeries := fig.Series[len(fig.Series)-1] // largest Δf
	nearSeries := fig.Series[0]                // smallest Δf
	farCanc := farSeries.Y[len(farSeries.Y)-1] // largest Δτ
	nearCanc := nearSeries.Y[0]                // smallest Δτ
	if farCanc < 10 {
		t.Errorf("cancellation at (0.5,0.5) = %.1f dB, want >= 10", farCanc)
	}
	if nearCanc > farCanc/2 {
		t.Errorf("cancellation at (0.02,0.02) = %.1f dB vs far %.1f dB: no gradient", nearCanc, farCanc)
	}
}

func TestPreambleClutterFigure(t *testing.T) {
	fig, err := PreambleClutter(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatal("want 2 series")
	}
	upMean := mean(fig.Series[0].Y)
	downMean := mean(fig.Series[1].Y)
	if downMean >= upMean {
		t.Errorf("down-chirp clutter %.2f >= up-chirp clutter %.2f", downMean, upMean)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

func TestSNRDistributionFigure(t *testing.T) {
	fig, err := SNRDistribution(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatal("want 4 deployments")
	}
	for _, s := range fig.Series {
		// CDF must be monotone from 0 to 1.
		prev := -1.0
		for _, y := range s.Y {
			if y < prev {
				t.Fatalf("%s CDF not monotone", s.Name)
			}
			prev = y
		}
		if s.Y[len(s.Y)-1] != 1 {
			t.Errorf("%s CDF does not reach 1", s.Name)
		}
	}
}

func TestDeploymentMapsFigure(t *testing.T) {
	fig, err := DeploymentMaps(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig22_26" || len(fig.Series) != 4 {
		t.Fatal("maps shape wrong")
	}
	for _, s := range fig.Series {
		if len(s.X) != 20 {
			t.Errorf("%s has %d nodes", s.Name, len(s.X))
		}
	}
}

func TestSpectraDemoFigure(t *testing.T) {
	fig, err := SpectraDemo(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatal("want 3 spectra")
	}
	// CIC's spectrum must be the most concentrated: its peak-to-total
	// ratio should beat standard LoRa's.
	stdPeak := maxOf(fig.Series[0].Y)
	cicPeak := maxOf(fig.Series[2].Y)
	if cicPeak <= stdPeak {
		t.Errorf("CIC peak share %.3f <= std %.3f (no interference removed)", cicPeak, stdPeak)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestTemporalProximityFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := quickConfig()
	cfg.PayloadLen = 12
	fig, err := TemporalProximity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) != 10 {
		t.Fatalf("%d offsets", len(s.X))
	}
	// SER must be low once Δτ/Ts >= 0.2 and high at 0 (indistinguishable
	// boundaries), matching Fig 38's shape.
	if s.Y[0] < s.Y[5] {
		t.Errorf("SER at offset 0 (%.3f) below SER at 0.5 (%.3f)", s.Y[0], s.Y[5])
	}
	var tail float64
	for _, y := range s.Y[2:] {
		tail += y
	}
	tail /= float64(len(s.Y) - 2)
	if tail > 0.1 {
		t.Errorf("mean SER beyond 0.2 Ts = %.3f, want <= 0.1", tail)
	}
}

func TestSummaryRatios(t *testing.T) {
	fig := Figure{
		ID: "fig28", Title: "t", XLabel: "x",
		Series: []Series{
			{Name: "CIC", X: []float64{10, 20}, Y: []float64{10, 20}},
			{Name: "FTrack", X: []float64{10, 20}, Y: []float64{5, 5}},
			{Name: "Choir", X: []float64{10, 20}, Y: []float64{1, 1}},
			{Name: "LoRa", X: []float64{10, 20}, Y: []float64{2, 0}},
		},
	}
	sum, err := Summary(fig)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Series[0].Y[0] != 5 || sum.Series[1].Y[1] != 4 {
		t.Errorf("ratios wrong: %+v", sum.Series)
	}
	if sum.Series[0].Y[1] != 0 {
		t.Error("division by zero not guarded")
	}
	if _, err := Summary(Figure{}); err == nil {
		t.Error("summary of empty figure accepted")
	}
}

func TestWriteSVG(t *testing.T) {
	fig := Figure{
		ID: "figS", Title: "svg <test> & escape", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 3, 1}},
			{Name: "b", X: []float64{0, 1, 2}, Y: []float64{2, 2, 2}},
		},
	}
	var buf bytes.Buffer
	if err := fig.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "polyline", "&lt;test&gt;", "&amp;"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Degenerate figures must not divide by zero.
	var empty bytes.Buffer
	if err := (Figure{ID: "e"}).WriteSVG(&empty); err != nil {
		t.Fatal(err)
	}
	flat := Figure{ID: "f", Series: []Series{{Name: "z", X: []float64{5}, Y: []float64{0}}}}
	if err := flat.WriteSVG(&empty); err != nil {
		t.Fatal(err)
	}
}

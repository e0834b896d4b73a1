package experiment

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cic"
	"cic/internal/fault"
	"cic/internal/obs"
	"cic/internal/server"
)

// validConfigJSON is the canonical smoke-scale sweep used across tests.
const validConfigJSON = `{
	"version": 1,
	"name": "test-sweep",
	"kind": "sweep",
	"metric": "prr",
	"channel": {"sf": 8, "bandwidth_hz": 250000, "osr": 2, "cr": "4/5", "sync_word": 52},
	"deployments": [{"base": "D1", "nodes": 4}],
	"rates": [20, 40],
	"duration_s": 0.4,
	"payload_len": 8,
	"receivers": ["CIC", "LoRa"],
	"seeds": {"base": 1, "count": 2}
}`

func mustParse(t *testing.T, src string) *Config {
	t.Helper()
	cfg, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseValid(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	if cfg.Name != "test-sweep" || cfg.Kind != KindSweep || cfg.Metric != MetricPRR {
		t.Fatalf("parsed %+v", cfg)
	}
	if got := cfg.SeedCount(); got != 2 {
		t.Errorf("seed count %d", got)
	}
	fc := cfg.FrameConfig()
	if fc.Chirp.SF != 8 || fc.Chirp.Bandwidth != 250e3 || fc.SyncWord != 0x34 {
		t.Errorf("frame config %+v", fc)
	}
	gc := cfg.GatewayConfig()
	if gc.SpreadingFactor != 8 || gc.CodingRate != 1 || !gc.PayloadCRC {
		t.Errorf("gateway config %+v", gc)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"typo_field":true}`,
		"bad version":       `{"version":2,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"no name":           `{"version":1,"kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad kind":          `{"version":1,"name":"x","kind":"zap","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"no metric":         `{"version":1,"name":"x","kind":"sweep","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad metric":        `{"version":1,"name":"x","kind":"sweep","metric":"vibes","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad figure":        `{"version":1,"name":"x","kind":"figure","figure":"nonesuch"}`,
		"retired figure":    `{"version":1,"name":"x","kind":"figure","figure":"ablation"}`,
		"sf low":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"sf":6},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"sf high":           `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"sf":13},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad bw":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"bandwidth_hz":300000},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad osr":           `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"osr":3},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad cr":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"cr":"4/9"},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad deployment":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D9"}],"rates":[10],"duration_s":1}`,
		"no deployments":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[],"rates":[10],"duration_s":1}`,
		"negative rate":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[-5],"duration_s":1}`,
		"zero duration":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":0}`,
		"bad duty cycle":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1","duty_cycle":1.5}],"rates":[10],"duration_s":1}`,
		"bad receiver":      `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"receivers":["WiFi"]}`,
		"bad fault spec":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"fault":"zorp@"}`,
		"payload too large": `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"payload_len":300}`,
		"fault on figure":   `{"version":1,"name":"x","kind":"figure","figure":"snr","fault":"drop@10"}`,
		"deps on figure":    `{"version":1,"name":"x","kind":"figure","figure":"snr","deployments":[{"base":"D1"}]}`,
		"empty deps figure": `{"version":1,"name":"x","kind":"figure","figure":"snr","deployments":[]}`,
		"rates on figure":   `{"version":1,"name":"x","kind":"figure","figure":"snr","rates":[10]}`,
		"dur on figure":     `{"version":1,"name":"x","kind":"figure","figure":"snr","duration_s":2}`,
		"rx on figure":      `{"version":1,"name":"x","kind":"figure","figure":"snr","receivers":["CIC"]}`,
		"workers on figure": `{"version":1,"name":"x","kind":"figure","figure":"snr","workers":2}`,
		"summary on figure": `{"version":1,"name":"x","kind":"figure","figure":"snr","summary":true}`,
		"seeds on figure":   `{"version":1,"name":"x","kind":"figure","figure":"snr","seeds":{"base":1,"count":2}}`,
		"trailing doc":      `{"version":1,"name":"x","kind":"figure","figure":"snr"}{"again":true}`,
		"not json":          `pure garbage`,
	}
	for label, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestCommittedConfigsParse keeps every config under experiments/ loadable:
// a schema change that orphans a committed artifact fails here, not in a
// user's terminal.
func TestCommittedConfigsParse(t *testing.T) {
	paths, err := filepath.Glob("../../experiments/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 12 {
		t.Fatalf("only %d committed configs found", len(paths))
	}
	for _, p := range paths {
		cfg, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if cfg.Kind == KindSweep && len(cfg.Trials()) == 0 {
			t.Errorf("%s: empty trial matrix", p)
		}
	}
}

func TestConfigSHA(t *testing.T) {
	a := mustParse(t, validConfigJSON)
	b := mustParse(t, validConfigJSON)
	if a.SHA() != b.SHA() {
		t.Error("identical configs hash differently")
	}
	c := mustParse(t, strings.Replace(validConfigJSON, `"base": 1`, `"base": 2`, 1))
	if a.SHA() == c.SHA() {
		t.Error("different configs hash identically")
	}
}

func TestTrialMatrix(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	trials := cfg.Trials()
	if len(trials) != 1*2*2 {
		t.Fatalf("%d trials", len(trials))
	}
	keys := map[string]bool{}
	seeds := map[int64]bool{}
	for i, tr := range trials {
		if tr.Index != i {
			t.Errorf("trial %d has index %d", i, tr.Index)
		}
		if keys[tr.Key] {
			t.Errorf("duplicate key %s", tr.Key)
		}
		keys[tr.Key] = true
		if seeds[tr.Seed] {
			t.Errorf("duplicate seed %d", tr.Seed)
		}
		seeds[tr.Seed] = true
	}
	// The matrix is a pure function of the config.
	again := cfg.Trials()
	for i := range trials {
		if trials[i] != again[i] {
			t.Fatal("matrix not reproducible")
		}
	}
}

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := j.Append(TrialResult{
			ConfigSHA: "sha1", Name: "t", Key: fmt.Sprintf("D1/r10/s%d", i),
			Drive: DriveInProcess, Seed: int64(i),
			Receivers: map[string]ReceiverScore{"CIC": {Offered: 10, Decoded: 9, PRR: 0.9}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJournal(path, "sha1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d entries", len(got))
	}
	if got["D1/r10/s1"].Receivers["CIC"].Decoded != 9 {
		t.Error("entry content lost")
	}

	// A torn final line (kill mid-write) is tolerated.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, []byte(`{"config_sha":"sha1","key":"D1/r10/s3","receiv`)...)
	tornPath := filepath.Join(dir, "torn.ndjson")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(tornPath, "sha1")
	if err != nil || len(got) != 3 {
		t.Fatalf("torn journal: %d entries, err %v", len(got), err)
	}

	// A malformed line in the middle is corruption, not a torn tail.
	bad := append([]byte("not json at all\n"), data...)
	badPath := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(badPath, "sha1"); err == nil {
		t.Error("mid-journal corruption accepted")
	}

	// A different config identity refuses to resume.
	if _, err := ReadJournal(path, "other-sha"); err == nil {
		t.Error("journal from a different config accepted")
	}

	// Missing journal = empty.
	got, err = ReadJournal(filepath.Join(dir, "missing.ndjson"), "sha1")
	if err != nil || len(got) != 0 {
		t.Errorf("missing journal: %d entries, err %v", len(got), err)
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := meanCI95([]float64{2, 4, 6})
	if math.Abs(mean-4) > 1e-12 {
		t.Errorf("mean %g", mean)
	}
	// s = 2, n = 3, t(df 2) = 4.303 → half = 4.303·2/√3.
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(half-want) > 1e-9 {
		t.Errorf("half %g want %g", half, want)
	}
	if m, h := meanCI95([]float64{7}); m != 7 || h != 0 {
		t.Errorf("singleton: %g ± %g", m, h)
	}
	if m, h := meanCI95(nil); m != 0 || h != 0 {
		t.Errorf("empty: %g ± %g", m, h)
	}
	// Large n falls back to the normal critical value.
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i % 2)
	}
	_, h := meanCI95(big)
	if h <= 0 {
		t.Error("no interval for large n")
	}
}

// TestRunResumeByteIdentical is the harness's core contract: an
// interrupted matrix, resumed from the journal, aggregates to exactly the
// bytes an uninterrupted run produces.
func TestRunResumeByteIdentical(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	ctx := context.Background()
	reg := obs.NewRegistry()

	// Uninterrupted reference run.
	refJournal := filepath.Join(t.TempDir(), "ref.ndjson")
	ref, err := Run(ctx, cfg, RunnerOptions{JournalPath: refJournal, Concurrency: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Executed != 4 || ref.Stopped {
		t.Fatalf("reference run: executed %d, stopped %v", ref.Executed, ref.Stopped)
	}
	refFigs, err := Aggregate(cfg, ref.Results)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	for _, f := range refFigs {
		if err := f.WriteCSV(&refCSV); err != nil {
			t.Fatal(err)
		}
	}

	// Nonzero decode sanity: the CIC receiver must decode something.
	anyDecoded := false
	for _, tr := range ref.Results {
		if tr.Receivers["CIC"].Decoded > 0 {
			anyDecoded = true
		}
	}
	if !anyDecoded {
		t.Fatal("CIC decoded nothing across the matrix")
	}

	// Interrupted run: stop after 2 trials, then resume.
	resJournal := filepath.Join(t.TempDir(), "res.ndjson")
	first, err := Run(ctx, cfg, RunnerOptions{JournalPath: resJournal, Concurrency: 1, StopAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Stopped || first.Executed != 2 {
		t.Fatalf("first leg: executed %d, stopped %v", first.Executed, first.Stopped)
	}
	if _, err := Aggregate(cfg, first.Results); err == nil {
		t.Fatal("aggregate of an incomplete matrix must fail")
	}
	second, err := Run(ctx, cfg, RunnerOptions{JournalPath: resJournal, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 2 || second.Executed != 2 {
		t.Fatalf("second leg: executed %d, resumed %d", second.Executed, second.Resumed)
	}
	resFigs, err := Aggregate(cfg, second.Results)
	if err != nil {
		t.Fatal(err)
	}
	var resCSV bytes.Buffer
	for _, f := range resFigs {
		if err := f.WriteCSV(&resCSV); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(refCSV.Bytes(), resCSV.Bytes()) {
		t.Errorf("resumed aggregates differ from uninterrupted run:\n--- ref\n%s\n--- resumed\n%s", refCSV.String(), resCSV.String())
	}

	// CI columns exist (2 seeds) and the metrics registry saw the run.
	if !strings.Contains(refCSV.String(), "ci95") {
		t.Error("aggregate CSV missing ci95 columns")
	}
	snap := reg.Snapshot()
	if snap.Gauges[MetricTrialsPlanned] != 4 {
		t.Errorf("planned gauge %d", snap.Gauges[MetricTrialsPlanned])
	}
	if snap.Counters[MetricPacketsOffered] == 0 {
		t.Error("offered counter never moved")
	}
}

// startTestGatewayd runs the ingestion server in-process and returns an
// attach-mode Gatewayd. wrap optionally injects connection faults.
func startTestGatewayd(t *testing.T, wrap func(net.Conn) net.Conn) *Gatewayd {
	t.Helper()
	dir := t.TempDir()
	outPath := filepath.Join(dir, "records.ndjson")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Workers:  1,
		Metrics:  cic.NewMetrics(),
		Sink:     server.NewFanout(out),
		WrapConn: wrap,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		ln.Close()
		out.Close()
	})
	return &Gatewayd{Addr: ln.Addr().String(), OutPath: outPath}
}

func TestRunGatewaydDrive(t *testing.T) {
	cfg := mustParse(t, strings.Replace(validConfigJSON,
		`"rates": [20, 40]`, `"rates": [30]`, 1))
	cfg.Receivers = []string{"CIC"}
	cfg.Seeds.Count = 1
	gd := startTestGatewayd(t, nil)
	res, err := Run(context.Background(), cfg, RunnerOptions{
		JournalPath: filepath.Join(t.TempDir(), "gw.ndjson"),
		Drive:       DriveGatewayd,
		Gatewayd:    gd,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := res.Results["D1/r30/s0"]
	if !ok {
		t.Fatalf("trial missing; have %v", res.Results)
	}
	if tr.Drive != DriveGatewayd {
		t.Errorf("drive %q", tr.Drive)
	}
	sc := tr.Receivers["CIC"]
	if sc.Offered == 0 || sc.Decoded == 0 {
		t.Errorf("gatewayd drive decoded %d of %d", sc.Decoded, sc.Offered)
	}
	if sc.PRR <= 0 || sc.PRR > 1 {
		t.Errorf("PRR %g", sc.PRR)
	}
}

// TestRunGatewaydDriveFaulted streams through injected connection drops:
// the reconnecting client must recover and the trial must still score.
func TestRunGatewaydDriveFaulted(t *testing.T) {
	// every=2: the first connection drops mid-stream, the retry is clean.
	spec, err := fault.ParseSpec("seed=7;every=2;drop@131072")
	if err != nil {
		t.Fatal(err)
	}
	conns := 0
	wrap := func(c net.Conn) net.Conn {
		sched := spec.Schedule(conns)
		conns++
		if len(sched.Read) == 0 && len(sched.Write) == 0 {
			return c
		}
		return fault.WrapConn(c, sched, nil)
	}
	cfg := mustParse(t, strings.Replace(validConfigJSON,
		`"rates": [20, 40]`, `"rates": [30]`, 1))
	cfg.Receivers = []string{"CIC"}
	cfg.Seeds.Count = 1
	gd := startTestGatewayd(t, wrap)
	res, err := Run(context.Background(), cfg, RunnerOptions{
		Drive:       DriveGatewayd,
		Gatewayd:    gd,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Results["D1/r30/s0"]
	if sc := tr.Receivers["CIC"]; sc.Decoded == 0 {
		t.Errorf("faulted gatewayd drive decoded nothing (offered %d)", sc.Offered)
	}
	if tr.Reconnects == 0 {
		t.Error("fault injected but client never reconnected")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	ctx := context.Background()
	if _, err := Run(ctx, cfg, RunnerOptions{Drive: "carrier-pigeon"}); err == nil {
		t.Error("unknown drive accepted")
	}
	if _, err := Run(ctx, cfg, RunnerOptions{Drive: DriveGatewayd}); err == nil {
		t.Error("gatewayd drive without target accepted")
	}
	det := mustParse(t, strings.Replace(validConfigJSON, `"metric": "prr"`, `"metric": "detection"`, 1))
	if _, err := Run(ctx, det, RunnerOptions{Drive: DriveGatewayd, Gatewayd: &Gatewayd{}}); err == nil {
		t.Error("detection sweep over gatewayd accepted")
	}
	fig := mustParse(t, `{"version":1,"name":"f","kind":"figure","figure":"snr"}`)
	if _, err := Run(ctx, fig, RunnerOptions{}); err == nil {
		t.Error("figure config accepted by sweep runner")
	}
	if _, err := Aggregate(fig, nil); err == nil {
		t.Error("figure config accepted by aggregator")
	}
	if _, err := Figures(cfg); err == nil {
		t.Error("sweep config accepted by figure dispatch")
	}
}

func TestDetectionSweep(t *testing.T) {
	src := strings.Replace(validConfigJSON, `"metric": "prr"`, `"metric": "detection"`, 1)
	src = strings.Replace(src, `"receivers": ["CIC", "LoRa"],`, ``, 1)
	src = strings.Replace(src, `"rates": [20, 40]`, `"rates": [40]`, 1)
	cfg := mustParse(t, src)
	cfg.Seeds.Count = 1
	res, err := Run(context.Background(), cfg, RunnerOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Results["D1/r40/s0"]
	for _, name := range []string{"CIC", "FTrack", "LoRa"} {
		if _, ok := tr.Receivers[name]; !ok {
			t.Errorf("detection trial missing %s", name)
		}
	}
	if tr.Receivers["CIC"].DetectionRate <= 0 {
		t.Error("CIC detected nothing")
	}
	figs, err := Aggregate(cfg, res.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].YLabel != "detection rate" {
		t.Errorf("aggregate figures %+v", figs)
	}
}

func TestFiguresDispatch(t *testing.T) {
	cfg := mustParse(t, `{
		"version": 1, "name": "snr-fig", "kind": "figure", "figure": "snr",
		"seeds": {"base": 1}
	}`)
	figs, err := Figures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Series) == 0 {
		t.Fatalf("snr figure: %+v", figs)
	}
}

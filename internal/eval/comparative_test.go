package eval_test

import (
	"context"
	"fmt"
	"testing"

	"cic/internal/experiment"
)

// sweep runs a one-trial D1 sweep through the experiment harness (the
// path every committed throughput and detection figure takes) and returns
// each receiver's score.
func sweep(t *testing.T, metric string, rate, duration float64, receivers string) map[string]experiment.ReceiverScore {
	t.Helper()
	cfg, err := experiment.Parse([]byte(fmt.Sprintf(`{
		"version": 1, "name": "comparative", "kind": "sweep", "metric": %q,
		"channel": {"sf": 8, "bandwidth_hz": 250000, "osr": 4, "cr": "4/5"},
		"deployments": [{"base": "D1"}],
		"rates": [%g], "duration_s": %g, "payload_len": 16,
		%s
		"seeds": {"base": 1}
	}`, metric, rate, duration, receivers)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(context.Background(), cfg, experiment.RunnerOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("%d trials, want 1", len(res.Results))
	}
	for _, tr := range res.Results {
		return tr.Receivers
	}
	return nil
}

// TestThroughputComparative is the headline regression: in D1 at high load,
// CIC must beat FTrack and standard LoRa (Figs 28).
func TestThroughputComparative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := sweep(t, "throughput", 40, 1.5, `"receivers": ["CIC", "FTrack", "LoRa"],`)
	if y["CIC"].Throughput <= y["LoRa"].Throughput {
		t.Errorf("CIC %.1f <= LoRa %.1f at 40 pkts/s", y["CIC"].Throughput, y["LoRa"].Throughput)
	}
	if y["CIC"].Throughput <= y["FTrack"].Throughput {
		t.Errorf("CIC %.1f <= FTrack %.1f at 40 pkts/s", y["CIC"].Throughput, y["FTrack"].Throughput)
	}
	if y["CIC"].Throughput <= 0 {
		t.Error("CIC decoded nothing")
	}
}

// TestDetectionComparative: CIC's down-chirp scan must find at least as
// many preambles as the locked single-packet LoRa receiver (Figs 32–35).
func TestDetectionComparative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := sweep(t, "detection", 60, 1, "")
	if y["CIC"].DetectionRate < y["LoRa"].DetectionRate {
		t.Errorf("CIC detection %.2f < locked LoRa %.2f", y["CIC"].DetectionRate, y["LoRa"].DetectionRate)
	}
}

// TestAblationFigureOrdering: removing both §5.7 filters must not beat
// full CIC (Figs 36–37).
func TestAblationFigureOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := sweep(t, "throughput", 40, 1, `"receivers": ["CIC", "CIC-(Power,CFO)"],`)
	if y["CIC-(Power,CFO)"].Throughput > y["CIC"].Throughput {
		t.Errorf("filters hurt: without %.1f > with %.1f", y["CIC-(Power,CFO)"].Throughput, y["CIC"].Throughput)
	}
}

// TestICSSComparisonFigure: the two-sub-symbol strawman ICSS must not
// beat CIC's optimal ICSS (§5.4) under the same traffic.
func TestICSSComparisonFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := sweep(t, "throughput", 40, 1, `"receivers": ["CIC", "Strawman-CIC"],`)
	if y["Strawman-CIC"].Throughput > y["CIC"].Throughput {
		t.Errorf("strawman throughput %.1f > full CIC %.1f", y["Strawman-CIC"].Throughput, y["CIC"].Throughput)
	}
}

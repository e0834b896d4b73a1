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

package cluster_test

import (
	"context"
	"log/slog"
	"sync"
	"testing"

	"cic/internal/cluster"
)

// logCapture is a slog.Handler recording every message it handles.
type logCapture struct {
	mu   sync.Mutex
	msgs []string
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs = append(h.msgs, r.Message)
	return nil
}

func (h *logCapture) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *logCapture) WithGroup(string) slog.Handler      { return h }

func (h *logCapture) count(msg string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, m := range h.msgs {
		if m == msg {
			n++
		}
	}
	return n
}

// TestRouterRetainTrimWarnsOnce: once a session's retention passes
// RetainCap every further IQ frame trims it, but the lossy-failover
// warning is logged once per session, while cluster_retain_trimmed
// still counts every trimmed sample.
func TestRouterRetainTrimWarnsOnce(t *testing.T) {
	const (
		retainCap = 2 * chaosChunk
		frames    = 10
	)
	logs := &logCapture{}
	tc := startCluster(t, 1, clusterOpts{routerCfg: func(c *cluster.Config) {
		c.RetainCap = retainCap
		c.Log = slog.New(logs)
	}})
	c := helloClient(t, tc.addr, "flood", testConfig())
	if c == nil {
		t.FailNow()
	}
	quiet := make([]complex128, chaosChunk)
	for i := 0; i < frames; i++ {
		if err := c.WriteIQ(quiet); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tc.shutdownAndCollect()

	if n := logs.count("session retention trimmed (failover now lossy)"); n != 1 {
		t.Errorf("retention-trim warning logged %d times, want once per session", n)
	}
	snap := tc.reg.Snapshot()
	if got, want := snap.Counters[cluster.MetricRetainTrimmed], int64(frames*chaosChunk-retainCap); got != want {
		t.Errorf("%s = %d, want %d (every sample past the cap)", cluster.MetricRetainTrimmed, got, want)
	}
	if g := snap.Gauges[cluster.MetricRetainSamples]; g != 0 {
		t.Errorf("%s = %d after the session ended, want 0", cluster.MetricRetainSamples, g)
	}
}

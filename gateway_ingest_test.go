package cic_test

import (
	"bytes"
	"strconv"
	"testing"

	"cic"
	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/sim"
)

// simTrace renders rate pkt/s of 28-byte traffic in dep for seconds of
// air, in the default configuration.
func simTrace(t testing.TB, dep sim.Deployment, rate, seconds float64) []complex128 {
	t.Helper()
	fc := frame.Config{
		Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4},
		PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
		SyncWord: 0x34,
	}
	nw, err := sim.NewNetwork(fc, dep, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := nw.BuildRun(rate, seconds, 28, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, end := run.Source.Span()
	iq := make([]complex128, end-start)
	run.Source.Read(iq, start)
	return iq
}

// streamChunks writes iq through a fresh gateway in chunk-sample writes
// and returns every record delivered.
func streamChunks(t testing.TB, iq []complex128, chunk int) []cic.Packet {
	t.Helper()
	gw, err := cic.NewGateway(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); off += chunk {
		if _, err := gw.Write(iq[off:min(off+chunk, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// sameRecords reports the first record that differs on Start, OK, CFO,
// SNR or Payload (or a count mismatch).
func sameRecords(t *testing.T, label string, got, want []cic.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.OK != w.OK || g.CFO != w.CFO || g.SNR != w.SNR || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("%s: record %d = {%d %v %v %v %x}, want {%d %v %v %v %x}", label, i,
				g.Start, g.OK, g.CFO, g.SNR, g.Payload, w.Start, w.OK, w.CFO, w.SNR, w.Payload)
		}
	}
}

// TestGatewayChunkInvariant: the gateway detects and dispatches only at
// fixed ingest-step boundaries, so its records depend on the sample
// stream alone — never on how the stream is cut into writes.
func TestGatewayChunkInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	seconds := 2.0
	if raceEnabled {
		seconds = 0.5 // the detector makes a 2 s dense trace take minutes
	}
	iq := simTrace(t, sim.D4, 100, seconds)
	want := streamChunks(t, iq, 16384)
	if len(want) < 10 {
		t.Fatalf("reference run delivered only %d records", len(want))
	}
	for _, chunk := range []int{512, 1024, 4096, 100000} {
		sameRecords(t, "chunk "+strconv.Itoa(chunk), streamChunks(t, iq, chunk), want)
	}
}

// TestGatewayOversizeWrite: one Write longer than the ring must decode
// exactly what ingest-step-sized writes decode — no sample is skipped.
func TestGatewayOversizeWrite(t *testing.T) {
	iq := simTrace(t, sim.D1, 10, 2)
	gw, err := cic.NewGateway(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	if ring := gw.RingSamples(); int64(len(iq)) <= ring {
		t.Fatalf("trace of %d samples fits the %d-sample ring", len(iq), ring)
	}
	want := streamChunks(t, iq, 16384)
	if len(want) == 0 {
		t.Fatal("no records from 16384-sample writes")
	}
	sameRecords(t, "single write", streamChunks(t, iq, len(iq)), want)
}

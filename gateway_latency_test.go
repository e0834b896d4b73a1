package cic_test

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"cic"
)

// gatewaySteps returns a CIC gateway's 16-symbol ingest step and its
// settle margin: the 12.25-symbol preamble plus the 2-symbol down-chirp
// scan lag.
func gatewaySteps(cfg cic.Config) (step, settle int64) {
	sym := int64(cfg.SamplesPerSymbol())
	return 16 * sym, 57 * sym / 4
}

// TestGatewayEmitsAtRealLength: a short packet's record arrives once the
// air has moved the settle margin past its real end — not after a
// worst-case 255-byte span. The gateway is fed one ingest step at a time
// and never past end + settle + step; the worker gets a generous timeout.
func TestGatewayEmitsAtRealLength(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("twenty byte payload!")
	const start = 5000
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: start, SNR: 25, CFO: 1100},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pktLen, err := cfg.PacketSamples(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := cic.NewGateway(cfg, cic.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	step, settle := gatewaySteps(cfg)
	limit := start + int64(pktLen) + settle + step
	if limit >= gw.MaxPacketSamples() {
		t.Fatalf("limit %d does not separate real length from the %d-sample worst case", limit, gw.MaxPacketSamples())
	}
	buf := make([]complex128, step)
	for pos := int64(0); pos+step <= limit; pos += step {
		src.Read(buf, pos)
		if _, err := gw.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-gw.Packets():
		if !p.OK || !bytes.Equal(p.Payload, payload) {
			t.Fatalf("record %+v, want %q", p, payload)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("no record within %d samples of the packet's end", limit-start-int64(pktLen))
	}
}

// TestGatewayLongPacketKeepsStartOrder: short packets that start inside a
// long one end (and are dispatched) before it, yet the records are still
// delivered in start order.
func TestGatewayLongPacketKeepsStartOrder(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	sym := int64(cfg.SamplesPerSymbol())
	long := bytes.Repeat([]byte("long packet "), 17)[:200]
	ems := []cic.Emission{
		{Payload: long, StartSample: 4096, SNR: 24, CFO: 1500},
		{Payload: []byte("short packet one"), StartSample: 4096 + 40*sym + 301, SNR: 27, CFO: -2300},
		{Payload: []byte("short packet two"), StartSample: 4096 + 120*sym + 77, SNR: 26, CFO: 3100},
	}
	src, err := cic.SimulateCollision(cfg, ems, 6)
	if err != nil {
		t.Fatal(err)
	}
	iq := append(cic.Samples(src), make([]complex128, 8*cfg.SamplesPerSymbol())...)
	for _, workers := range []int{1, 4} {
		gw, err := cic.NewGateway(cfg, cic.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		done := collectPackets(gw)
		for off := 0; off < len(iq); off += 8192 {
			if _, err := gw.Write(iq[off:min(off+8192, len(iq))]); err != nil {
				t.Fatal(err)
			}
		}
		gw.Close()
		all := <-done
		if len(all) != len(ems) {
			t.Fatalf("workers=%d: %d records, want %d: %+v", workers, len(all), len(ems), all)
		}
		for i, p := range all {
			if !p.OK || !bytes.Equal(p.Payload, ems[i].Payload) {
				t.Errorf("workers=%d: record %d = %+v, want %q", workers, i, p, ems[i].Payload)
			}
		}
	}
}

// TestGatewayMaxLengthThroughRing: a 255-byte packet, the longest the ring
// is sized for, decodes CRC-OK whatever the write size. Its end plus the
// settle margin falls just past an ingest step boundary, so its payload is
// snapshotted as far behind its start as any packet's can be; a ring too
// short for that hands the snapshot evicted, zero-filled samples.
func TestGatewayMaxLengthThroughRing(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := bytes.Repeat([]byte{0x5a, 0xc3, 0x17}, 85)
	probe, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	step, settle := gatewaySteps(cfg)
	// Past the first ring wrap, with start + maxPkt + settle ≡ 1 (mod step).
	start := probe.RingSamples()
	start += (2*step-(start+probe.MaxPacketSamples()+settle)%step)%step + 1
	if ring := probe.MaxPacketSamples() + settle + step; probe.RingSamples() != ring {
		t.Fatalf("ring %d samples, want max packet + settle + step = %d", probe.RingSamples(), ring)
	}
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: start, SNR: 25, CFO: -700},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The tail carries the stream past the dispatch boundary, so the
	// payload is dispatched by ingest rather than by Close's flush.
	_, end := src.Span()
	iq := make([]complex128, end+settle+2*step)
	src.Read(iq, 0)
	for _, chunk := range []int{512, 4096, 16384, 100000} {
		all := streamChunks(t, iq, chunk)
		if len(all) != 1 || !all[0].OK || !bytes.Equal(all[0].Payload, payload) {
			t.Fatalf("chunk %s: %d records (first %+v), want one CRC-OK 255-byte packet",
				strconv.Itoa(chunk), len(all), all)
		}
	}
}

// TestGatewayLateInterfererInPayloadSet: a strong packet that starts in
// another packet's last few symbols is detected before that packet's
// payload is dispatched, so it is in the payload's interferer set. The
// trace is aligned so that the first packet's end plus the down-chirp scan
// lag falls just before an ingest step boundary: a settle margin without
// its preamble term would dispatch the payload at that boundary, before
// the late preamble has been scanned.
func TestGatewayLateInterfererInPayloadSet(t *testing.T) {
	cfg := cic.DefaultConfig()
	sym := int64(cfg.SamplesPerSymbol())
	first := []byte("first packet, weaker")
	n, err := cfg.PacketSamples(len(first))
	if err != nil {
		t.Fatal(err)
	}
	pktLen := int64(n)
	step := 16 * sym
	lead := (2*step - (pktLen+2*sym+sym/4)%step) % step
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: first, StartSample: lead, SNR: 18, CFO: 900},
		{Payload: []byte("late strong packet"), StartSample: lead + pktLen - 3*sym + 250, SNR: 30, CFO: -3400},
	}, 12)
	if err != nil {
		t.Fatal(err)
	}
	_, end := src.Span()
	iq := make([]complex128, end+8*sym)
	src.Read(iq, 0)
	reg := cic.NewMetrics()
	gw, err := cic.NewGateway(cfg, cic.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); off += 16384 {
		if _, err := gw.Write(iq[off:min(off+16384, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	all := <-done
	if len(all) != 2 || all[0].Start >= all[1].Start {
		t.Fatalf("records %+v, want the first packet ahead of the late one", all)
	}
	// Each packet's payload set holds the other: one observation of 1 each.
	if h := gw.Stats().Histograms["collision_set_size"]; h.Count != 2 || h.Sum != 2 {
		t.Errorf("collision_set_size count %d sum %v, want 2 packets with 1 interferer each", h.Count, h.Sum)
	}
}

package cic_test

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cic"
)

// collectPackets drains the gateway's channel in the background.
func collectPackets(gw *cic.Gateway) <-chan []cic.Packet {
	done := make(chan []cic.Packet, 1)
	go func() {
		var all []cic.Packet
		for p := range gw.Packets() {
			all = append(all, p)
		}
		done <- all
	}()
	return done
}

func TestGatewayStreamsSinglePacket(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("streaming hello")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: 4096, SNR: 25, CFO: 1200},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	// Pad with noise-free tail so the air moves past the packet end.
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)

	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	// Feed in SDR-sized chunks.
	chunk := 4096
	for off := 0; off < len(iq); off += chunk {
		end := off + chunk
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	all := <-done
	if len(all) != 1 || !all[0].OK || !bytes.Equal(all[0].Payload, payload) {
		t.Fatalf("gateway stream: %+v", all)
	}
}

func TestGatewayStreamsCollision(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3 // tolerate a marginal ±1-bin slip
	sym := int64(cfg.SamplesPerSymbol())
	p1 := []byte("stream collision A")
	p2 := []byte("stream collision B")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: p1, StartSample: 4096, SNR: 26, CFO: 1700},
		{Payload: p2, StartSample: 4096 + 19*sym + 113, SNR: 23, CFO: -2600},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)

	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); off += 10000 {
		end := off + 10000
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	all := <-done
	got := map[string]bool{}
	for _, p := range all {
		if p.OK {
			got[string(p.Payload)] = true
		}
	}
	if !got[string(p1)] || !got[string(p2)] {
		t.Fatalf("gateway missed collided packets: %+v", all)
	}
}

func TestGatewayFlushOnClose(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("flush me")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: 2048, SNR: 25},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src) // no tail: only Close's flush can decode it

	gw, _ := cic.NewGateway(cfg)
	done := collectPackets(gw)
	if _, err := gw.Write(iq); err != nil {
		t.Fatal(err)
	}
	gw.Close()
	all := <-done
	if len(all) != 1 || !all[0].OK {
		t.Fatalf("flush did not deliver the packet: %+v", all)
	}
}

func TestGatewayWriteAfterClose(t *testing.T) {
	gw, err := cic.NewGateway(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	if _, err := gw.Write(make([]complex128, 10)); err == nil {
		t.Error("Write after Close succeeded")
	}
	if err := gw.Close(); err != nil {
		t.Error("double Close errored")
	}
}

func TestGatewayRejectsBatchOnlyAlgorithms(t *testing.T) {
	_, err := cic.NewGateway(cic.DefaultConfig(), cic.WithAlgorithm(cic.AlgorithmLoRa))
	if err == nil {
		t.Fatal("gateway accepted the LoRa capture-lock receiver")
	}
	if !strings.Contains(err.Error(), "capture lock") {
		t.Errorf("error %q does not name the capture lock", err)
	}
	for _, algo := range []cic.Algorithm{cic.AlgorithmStrawman, cic.AlgorithmChoir, cic.AlgorithmFTrack} {
		gw, err := cic.NewGateway(cic.DefaultConfig(), cic.WithAlgorithm(algo))
		if err != nil {
			t.Errorf("%s gateway rejected: %v", algo, err)
			continue
		}
		gw.Close()
	}
}

func TestGatewayBoundedMemory(t *testing.T) {
	cfg := cic.DefaultConfig()
	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	go func() {
		for range gw.Packets() {
		}
	}()
	// Stream two seconds of pure silence: buffered samples must stay
	// bounded by the ring size regardless of input volume.
	chunk := make([]complex128, 1<<15)
	total := int64(0)
	for total < int64(2*cfg.SampleRate()) {
		if _, err := gw.Write(chunk); err != nil {
			t.Fatal(err)
		}
		total += int64(len(chunk))
	}
	if got, ring := gw.BufferedSamples(), gw.RingSamples(); got > ring {
		t.Errorf("gateway buffered %d samples, ring bound %d", got, ring)
	}
}

// TestGatewayRingWrap: packets arriving long after the stream start (well
// past the ring capacity) must still decode — the ring base/head arithmetic
// has to stay consistent across many wraps.
func TestGatewayRingWrap(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("after the wrap")
	maxPkt, _ := cfg.PacketSamples(255)
	late := int64(7*maxPkt + 12345) // several ring lengths into the stream
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: late, SNR: 25, CFO: -1600},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, end := src.Span()
	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	buf := make([]complex128, 8192)
	for pos := int64(0); pos < end+int64(4*cfg.SamplesPerSymbol()); pos += int64(len(buf)) {
		src.Read(buf, pos)
		if _, err := gw.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	all := <-done
	found := false
	for _, p := range all {
		if p.OK && bytes.Equal(p.Payload, payload) {
			if d := p.Start - late; d > 2 || d < -2 {
				t.Errorf("start %d, want %d", p.Start, late)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("packet past the ring wrap not decoded: %+v", all)
	}
}

// TestGatewayHeaderFailure: a packet whose preamble survives but whose
// header block is lost is still delivered, as an undecoded record at its
// detected start, and counted as a header failure.
func TestGatewayHeaderFailure(t *testing.T) {
	cfg := cic.DefaultConfig()
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: []byte("header lost in fade"), StartSample: 4096, SNR: 25, CFO: 900},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	iq := append(cic.Samples(src), make([]complex128, 8*cfg.SamplesPerSymbol())...)
	recv, err := cic.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := recv.DecodeBuffer(iq)
	if err != nil || len(clean) != 1 || !clean[0].OK {
		t.Fatalf("clean decode: %+v, %v", clean, err)
	}
	// Blank the 8 header symbols that follow the 12.25-symbol preamble.
	m := int64(cfg.SamplesPerSymbol())
	hdr := clean[0].Start + 12*m + m/4
	clear(iq[hdr : hdr+8*m])

	reg := cic.NewMetrics()
	recv, err = cic.NewReceiver(cfg, cic.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := recv.DecodeBuffer(iq)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].OK || got[0].Payload != nil || got[0].Start != clean[0].Start {
		t.Fatalf("header-less packet delivered as %+v, want one undecoded record at %d", got, clean[0].Start)
	}
	if s := recv.Stats(); s.Counters["header_failures"] != 1 || s.Counters["headers_decoded"] != 0 {
		t.Errorf("header counters %v", s.Counters)
	}
}

// TestGatewayBoundedSnapshot: the ring holds one max-length packet at the
// configured coding rate, but a header carries its own. A CR 4/8 header
// claiming 250 bytes (512 symbols at SF8, past the 333 of a 255-byte
// CR 4/5 packet) is forwarded as one undecoded header failure, with no
// payload snapshot; a 150-byte CR 4/8 packet (312 symbols) still fits and
// decodes.
func TestGatewayBoundedSnapshot(t *testing.T) {
	cfg := cic.DefaultConfig() // CR 4/5
	tx := cfg
	tx.CodingRate = 4 // CR 4/8
	rng := rand.New(rand.NewSource(5))
	long := make([]byte, 250)
	short := make([]byte, 150)
	rng.Read(long)
	rng.Read(short)
	longAir, err := tx.PacketSamples(len(long))
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.SamplesPerSymbol())
	src, err := cic.SimulateCollision(tx, []cic.Emission{
		{Payload: long, StartSample: 4096, SNR: 25, CFO: 800},
		{Payload: short, StartSample: 4096 + int64(longAir) + 20*m, SNR: 25, CFO: -1100},
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The rendered span starts at the first emission: the long packet
	// starts at iq[0].
	iq := append(cic.Samples(src), make([]complex128, 8*m)...)

	var mu sync.Mutex
	var headers []cic.Event
	reg := cic.NewMetrics()
	gw, err := cic.NewGateway(cfg, cic.WithMetrics(reg), cic.WithTracer(func(ev cic.Event) {
		if ev.Kind == cic.EventHeader {
			mu.Lock()
			headers = append(headers, ev)
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); off += 8192 {
		if _, err := gw.Write(iq[off:min(off+8192, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	all := <-done

	if len(all) != 2 {
		t.Fatalf("%d records, want 2: %+v", len(all), all)
	}
	if d := all[0].Start; all[0].OK || all[0].Payload != nil || d > 2 || d < -2 {
		t.Errorf("250-byte CR 4/8 packet delivered as %+v, want one undecoded record at 0", all[0])
	}
	if !all[1].OK || !bytes.Equal(all[1].Payload, short) {
		t.Errorf("150-byte CR 4/8 packet not decoded: %+v", all[1])
	}
	if s := gw.Stats(); s.Counters["header_failures"] != 1 || s.Counters["headers_decoded"] != 1 {
		t.Errorf("header counters %v", s.Counters)
	}

	// A payload snapshot spans the preamble (12.25 symbols) plus the
	// header's symbol count; only a header that decodes is snapshotted.
	pre := 12*m + m/4
	mu.Lock()
	defer mu.Unlock()
	if len(headers) != 2 {
		t.Fatalf("%d header events, want 2", len(headers))
	}
	for _, ev := range headers {
		if air := pre + int64(ev.NSymbols)*m; ev.HeaderOK && air > gw.MaxPacketSamples() {
			t.Errorf("packet %d snapshotted %d samples, budget %d", ev.PacketID, air, gw.MaxPacketSamples())
		}
	}
	if ev := headers[0]; ev.HeaderOK || ev.NSymbols != 512 {
		t.Errorf("250-byte header event %+v, want HeaderOK=false with its claimed 512 symbols", ev)
	}
}

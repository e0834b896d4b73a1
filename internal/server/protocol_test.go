package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"cic"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ  byte
		body []byte
	}{
		{FrameHello, []byte("hello body")},
		{FrameIQ, make([]byte, 8*100)},
		{FrameClose, nil},
		{FrameOK, nil},
		{FrameError, []byte("reason")},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := WriteFrame(&buf, c.typ, c.body); err != nil {
			t.Fatalf("WriteFrame(0x%02x): %v", c.typ, err)
		}
	}
	for _, c := range cases {
		typ, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != c.typ || !bytes.Equal(body, c.body) {
			t.Fatalf("round trip: got (0x%02x, %d bytes), want (0x%02x, %d bytes)",
				typ, len(body), c.typ, len(c.body))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// An IQ frame claiming 100 MiB must be rejected from the 5-byte
	// header alone — no allocation, no body read.
	hdr := []byte{FrameIQ, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], 100<<20)
	_, _, err := ReadFrame(bytes.NewReader(hdr))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame: got %v", err)
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	hdr := []byte{0x7f, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameError, []byte("cut off")); err != nil {
		t.Fatal(err)
	}
	for n := 1; n < buf.Len(); n++ {
		if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:n])); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated at %d bytes: got %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.SpreadingFactor = 9
	cfg.CodingRate = 3
	cfg.Oversampling = 8
	cfg.Bandwidth = 125e3
	h := HelloFor("roof-antenna-2", cfg)
	body, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	back := got.Config()
	if back.SpreadingFactor != 9 || back.CodingRate != 3 || back.Oversampling != 8 || back.Bandwidth != 125e3 {
		t.Fatalf("Config(): %+v", back)
	}
	if back.PayloadCRC != cic.DefaultConfig().PayloadCRC {
		t.Fatal("non-wire fields must keep defaults")
	}
}

func TestParseHelloRejects(t *testing.T) {
	ok, _ := EncodeHello(HelloFor("s", cic.DefaultConfig()))
	bad := map[string][]byte{
		"short":       ok[:helloFixedSize-1],
		"magic":       append([]byte("XXXX"), ok[4:]...),
		"version":     append(append(append([]byte{}, ok[:4]...), 99), ok[5:]...),
		"station-len": append(append([]byte{}, ok...), 'x'), // length field no longer matches
	}
	for name, body := range bad {
		if _, err := ParseHello(body); err == nil {
			t.Errorf("%s hello accepted", name)
		}
	}
}

func TestIQBodyRoundTrip(t *testing.T) {
	iq := []complex128{1 + 2i, -0.5 - 0.25i, 0, complex(math.Pi, -math.E)}
	body := AppendIQBody(nil, iq)
	if len(body) != 8*len(iq) {
		t.Fatalf("body %d bytes, want %d", len(body), 8*len(iq))
	}
	got, err := DecodeIQBody(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range iq {
		want := complex(float64(float32(real(iq[i]))), float64(float32(imag(iq[i]))))
		if got[i] != want {
			t.Fatalf("sample %d: got %v, want %v", i, got[i], want)
		}
	}
	if _, err := DecodeIQBody(nil, body[:len(body)-3]); err == nil {
		t.Fatal("ragged IQ body accepted")
	}
}

func TestEstimateMemoryBytes(t *testing.T) {
	cfg := cic.DefaultConfig()
	est, err := EstimateMemoryBytes(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := cic.NewGateway(cfg, cic.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	go func() {
		for range gw.Packets() {
		}
	}()
	want := 16 * (gw.RingSamples() + 2*2*gw.MaxPacketSamples())
	if est != want {
		t.Fatalf("estimate %d, gateway-derived %d", est, want)
	}
}

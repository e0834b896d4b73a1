package cic_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"cic"
)

// streamTrace builds a three-packet collision trace plus a quiet tail long
// enough for the gateway to pass every packet's end.
func streamTrace(t testing.TB, cfg cic.Config) ([]complex128, [][]byte) {
	t.Helper()
	sym := int64(cfg.SamplesPerSymbol())
	payloads := [][]byte{
		[]byte("parity packet alpha"),
		[]byte("parity packet bravo"),
		[]byte("parity packet charl"),
	}
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payloads[0], StartSample: 4096, SNR: 27, CFO: 1500},
		{Payload: payloads[1], StartSample: 4096 + 13*sym + 211, SNR: 24, CFO: -2400},
		{Payload: payloads[2], StartSample: 4096 + 26*sym + 97, SNR: 25, CFO: 800},
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)
	return iq, payloads
}

// streamThrough pushes iq through a gateway in rng-sized chunks and
// returns everything delivered on Packets().
func streamThrough(t testing.TB, cfg cic.Config, iq []complex128, rng *rand.Rand, options ...cic.Option) []cic.Packet {
	t.Helper()
	gw, err := cic.NewGateway(cfg, options...)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); {
		end := off + 1 + rng.Intn(3*cfg.SamplesPerSymbol())
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// TestGatewayStreamBatchParity: the same collision trace pushed through the
// Gateway in random-sized chunks must yield the same payload set and order
// as Receiver.DecodeBuffer, at any worker count, for every streaming
// algorithm.
func TestGatewayStreamBatchParity(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3 // tolerate a marginal ±1-bin slip, as the batch tests do
	iq, _ := streamTrace(t, cfg)

	for _, algo := range []cic.Algorithm{cic.AlgorithmCIC, cic.AlgorithmChoir, cic.AlgorithmFTrack} {
		recv, err := cic.NewReceiver(cfg, cic.WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := recv.DecodeBuffer(iq)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, p := range batch {
			if p.OK {
				want = append(want, p.Payload)
			}
		}
		if len(want) == 0 || (algo == cic.AlgorithmCIC && len(want) != 3) {
			t.Fatalf("%s: batch receiver decoded %d/3 packets", algo, len(want))
		}

		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(7))
			all := streamThrough(t, cfg, iq, rng, cic.WithAlgorithm(algo), cic.WithWorkers(workers))
			var got [][]byte
			for _, p := range all {
				if p.OK {
					got = append(got, p.Payload)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: gateway decoded %d packets, batch %d", algo, workers, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s workers=%d: packet %d payload %q, batch %q", algo, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGatewayWorkerParity: a multi-worker gateway must deliver output
// byte-identical (order, payloads, metadata) to the single-worker serial
// path — the reorder buffer restores dispatch order exactly.
func TestGatewayWorkerParity(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	iq, _ := streamTrace(t, cfg)

	serial := streamThrough(t, cfg, iq, rand.New(rand.NewSource(11)), cic.WithWorkers(1))
	if len(serial) == 0 {
		t.Fatal("serial gateway delivered nothing")
	}
	for _, workers := range []int{2, 4} {
		par := streamThrough(t, cfg, iq, rand.New(rand.NewSource(11)), cic.WithWorkers(workers))
		if len(par) != len(serial) {
			t.Fatalf("workers=%d delivered %d packets, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			a, b := serial[i], par[i]
			if a.Start != b.Start || a.OK != b.OK || !bytes.Equal(a.Payload, b.Payload) ||
				a.SNR != b.SNR || a.CFO != b.CFO || a.FECCorrected != b.FECCorrected {
				t.Errorf("workers=%d: packet %d differs: serial %+v parallel %+v", workers, i, a, b)
			}
		}
	}
}

// TestGatewayConcurrentWriteClose is the -race regression for the
// Gateway.closed data race: Write, Close, BufferedSamples and Packets
// consumption all run concurrently.
func TestGatewayConcurrentWriteClose(t *testing.T) {
	cfg := cic.DefaultConfig()
	gw, err := cic.NewGateway(cfg, cic.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)

	var wg sync.WaitGroup
	wrote := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]complex128, 4096)
		var once sync.Once
		for {
			if _, err := gw.Write(chunk); err != nil {
				if !errors.Is(err, cic.ErrGatewayClosed) {
					t.Errorf("Write: %v", err)
				}
				return
			}
			once.Do(func() { close(wrote) })
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if gw.BufferedSamples() < 0 {
				t.Error("negative buffered sample count")
				return
			}
		}
	}()
	<-wrote
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	wg.Wait()
	<-done
}

// TestGatewayWithWorkersPlumbed: NewGateway must honour WithWorkers rather
// than silently ignoring it.
func TestGatewayWithWorkersPlumbed(t *testing.T) {
	gw, err := cic.NewGateway(cic.DefaultConfig(), cic.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	go func() {
		for range gw.Packets() {
		}
	}()
	if got := gw.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

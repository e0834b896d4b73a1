package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"unsafe"

	"cic"
	"cic/internal/channel"
	"cic/internal/frame"
)

// Every workload uses the same PHY: SF8, 250 kHz, OSR 4 (1 MS/s of air),
// CR 4/7 and 20-byte payloads with CRC.
const (
	payloadLen = 20
	// chunkSamples is the IQ chunk handed to each Gateway.Write or
	// Client.WriteIQ (16.4 ms of air).
	chunkSamples = 16384
	cfoMaxHz     = 9e3
)

func benchConfig() cic.Config {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	return cfg
}

// emission is one ground-truth transmission, positioned relative to the
// start of its station's rendered block.
type emission struct {
	start, end int64
	payload    []byte
	snr, cfo   float64
	phase      float64 // carrier phase at the first sample
}

// iqScale is the 16-bit fixed-point scale of a rendered block, as in
// an SDR's sc16 capture: amplitudes up to 256 (in units of the in-band
// noise amplitude) in steps of 1/128, far below the noise.
const iqScale = 128

// station is one station's air: a block rendered once, stored as
// interleaved 16-bit I/Q, and replayed back to back at advancing stream
// offsets (the emission starting at block offset s in replay r sits at
// stream sample r*blockLen+s), so a long run costs the memory of one
// block at 4 bytes per sample.
type station struct {
	name  string
	block []int16    // I, Q, I, Q, ...
	sched []emission // sorted by start
}

func (s *station) blockLen() int64 { return int64(len(s.block) / 2) }

// fill copies the stream window [pos, pos+len(dst)) into dst.
func (s *station) fill(dst []complex128, pos int64) {
	n := s.blockLen()
	off := pos % n
	for i := range dst {
		dst[i] = complex(float64(s.block[2*off])/iqScale, float64(s.block[2*off+1])/iqScale)
		if off++; off == n {
			off = 0
		}
	}
}

// newBlock allocates a station block outside the Go heap, so the
// benchmark's input does not stretch the collector's pacing of the
// system under test (nor its heap figures).
func newBlock(samples int64) ([]int16, error) {
	b, err := syscall.Mmap(-1, 0, int(4*samples), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping a %d-sample block: %w", samples, err)
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&b[0])), 2*samples), nil
}

// quantize rounds x to the block's fixed point, saturating.
func quantize(x float64) int16 {
	return int16(math.Max(math.MinInt16, math.Min(math.MaxInt16, math.Round(x*iqScale))))
}

// offered lists the emissions whose air ended within the first n stream
// samples, in stream coordinates.
func (s *station) offered(n int64) []emission {
	var out []emission
	for r := int64(0); r*s.blockLen() < n; r++ {
		base := r * s.blockLen()
		for _, e := range s.sched {
			if base+e.end > n {
				break
			}
			e.start += base
			e.end += base
			out = append(out, e)
		}
	}
	return out
}

// input is everything the benchmark feeds the system for one run.
type input struct {
	w        *workload
	seed     int64
	cfg      cic.Config
	sym      int64 // samples per symbol
	pktLen   int64 // samples per 20-byte packet
	stations []*station
	digest   string
}

// shape draws one block's emission schedule.
type shape func(rng *rand.Rand, blockLen, sym, pktLen int64) []emission

// poisson places packets as a Poisson process of the given rate
// (packets per air second at 1 MS/s) conditioned on its count: rate ×
// usable air packets at uniform starts, so every seed offers the same
// number. SNR is uniform in [snrLo, snrHi] dB.
func poisson(rate, snrLo, snrHi float64) shape {
	return func(rng *rand.Rand, blockLen, sym, pktLen int64) []emission {
		lo, hi := 8*sym, blockLen-pktLen-8*sym
		n := int(math.Round(rate * float64(hi-lo) / 1e6))
		out := make([]emission, n)
		for i := range out {
			out[i] = emission{start: lo + rng.Int63n(hi-lo), snr: snrLo + (snrHi-snrLo)*rng.Float64()}
		}
		return out
	}
}

// clusters places k packets per cluster with starts spread over a
// spanSyms-symbol span (one start drawn uniformly in each of k equal
// slots, so every cluster has the same density), clusters separated by
// gapSyms quiet symbols. Each cluster's SNRs are k levels stepDB apart
// from a random floor in [snrLo, snrLo+stepDB), in random order.
func clusters(k int, spanSyms, gapSyms int64, snrLo, stepDB float64) shape {
	return func(rng *rand.Rand, blockLen, sym, pktLen int64) []emission {
		var out []emission
		slot := spanSyms * sym / int64(k)
		period := spanSyms*sym + pktLen + gapSyms*sym
		for base := 8 * sym; base+period <= blockLen; base += period {
			floor := snrLo + stepDB*rng.Float64()
			order := rng.Perm(k)
			for i := 0; i < k; i++ {
				out = append(out, emission{
					start: base + int64(i)*slot + rng.Int63n(slot),
					snr:   floor + stepDB*float64(order[i]),
				})
			}
		}
		return out
	}
}

// splitmix derives independent sub-seeds from the run seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// generate renders the workload's air for seed. The same seed gives the
// same IQ and schedule; the SHA-256 digest covers both.
func generate(w *workload, seed int64, blockSamples int64) (*input, error) {
	cfg := benchConfig()
	pl, err := cfg.PacketSamples(payloadLen)
	if err != nil {
		return nil, err
	}
	in := &input{w: w, seed: seed, cfg: cfg, sym: int64(cfg.SamplesPerSymbol()), pktLen: int64(pl)}
	h := sha256.New()
	for i := 0; i < w.stations; i++ {
		sseed := int64(splitmix(uint64(seed)*31+uint64(i)) >> 1)
		st, err := renderStation(in, fmt.Sprintf("st%d", i), w.shape, sseed, blockSamples)
		if err != nil {
			return nil, err
		}
		in.stations = append(in.stations, st)
		hashStation(h, st)
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// renderWindow is how many samples are rendered at a time: only the
// emissions overlapping one window are modulated and held in memory.
const renderWindow = 1 << 20

func renderStation(in *input, name string, sh shape, seed, blockLen int64) (*station, error) {
	rng := rand.New(rand.NewSource(seed))
	sched := sh(rng, blockLen, in.sym, in.pktLen)
	sort.Slice(sched, func(i, j int) bool { return sched[i].start < sched[j].start })
	for i := range sched {
		e := &sched[i]
		e.end = e.start + in.pktLen
		e.cfo = (2*rng.Float64() - 1) * cfoMaxHz
		e.phase = 2 * math.Pi * rng.Float64()
		// A unique tag in the first bytes keeps every payload distinct.
		e.payload = make([]byte, payloadLen)
		binary.BigEndian.PutUint32(e.payload, uint32(i))
		rng.Read(e.payload[4:])
	}
	block, err := newBlock(blockLen)
	if err != nil {
		return nil, err
	}
	st := &station{name: name, block: block, sched: sched}
	// Windows render independently, one per CPU at a time.
	wins := make(chan int64)
	errs := make(chan error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]complex128, renderWindow)
			mod, err := frame.NewModulator(frameConfig(in.cfg))
			for pos := range wins {
				if err == nil {
					err = st.renderWindow(in, mod, seed, pos, buf)
				}
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	for pos := int64(0); pos < blockLen; pos += renderWindow {
		wins <- pos
	}
	close(wins)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return st, nil
}

// renderWindow renders the block's samples [pos, pos+renderWindow)
// using buf as scratch.
func (st *station) renderWindow(in *input, mod *frame.Modulator, seed, pos int64, buf []complex128) error {
	n := min(renderWindow, st.blockLen()-pos)
	var ems []channel.Emission
	i := sort.Search(len(st.sched), func(i int) bool { return st.sched[i].end > pos })
	for _, e := range st.sched[i:] {
		if e.start >= pos+n {
			break
		}
		wave, _, err := mod.Modulate(e.payload)
		if err != nil {
			return err
		}
		ems = append(ems, channel.Emission{Start: e.start, Samples: channel.Apply(wave, channel.Impairments{
			Amplitude:    channel.AmplitudeForSNR(e.snr),
			CFOHz:        e.cfo,
			InitialPhase: e.phase,
			SampleRate:   in.cfg.SampleRate(),
		})})
	}
	// The noise at a sample depends only on (seed, index), so windows
	// rendered apart join seamlessly.
	channel.NewRenderer(ems, in.cfg.Oversampling, seed).Render(buf[:n], pos)
	for i, v := range buf[:n] {
		st.block[2*(pos+int64(i))] = quantize(real(v))
		st.block[2*(pos+int64(i))+1] = quantize(imag(v))
	}
	return nil
}

// hashStation feeds a station's schedule and IQ to the input digest.
func hashStation(h io.Writer, st *station) {
	var b [8]byte
	for _, e := range st.sched {
		binary.LittleEndian.PutUint64(b[:], uint64(e.start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.snr))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.cfo))
		h.Write(b[:])
		h.Write(e.payload)
	}
	raw := make([]byte, 0, 2*4096)
	for i := 0; i < len(st.block); i += 4096 {
		raw = raw[:0]
		for _, v := range st.block[i:min(i+4096, len(st.block))] {
			raw = binary.LittleEndian.AppendUint16(raw, uint16(v))
		}
		h.Write(raw)
	}
}

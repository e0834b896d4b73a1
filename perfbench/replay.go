package main

import (
	"fmt"
	"time"

	"cic"
	"cic/internal/chirp"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/server"
)

// Layer replay bounds: the replay covers at most replayAir samples of
// the run's first station, from just before its first emission, and at
// most replayPackets packets.
const (
	replayAir     = 4_000_000
	replayPackets = 48
	replayFrames  = 200
)

// frameConfig mirrors cic.Config's internal layered configuration.
func frameConfig(c cic.Config) frame.Config {
	return frame.Config{
		Chirp: chirp.Params{SF: c.SpreadingFactor, Bandwidth: c.Bandwidth, OSR: c.Oversampling},
		PHY: phy.Config{
			SF:          c.SpreadingFactor,
			CR:          phy.CodingRate(c.CodingRate),
			HasCRC:      c.PayloadCRC,
			LowDataRate: c.LowDataRate,
		},
		SyncWord: c.SyncWord,
	}
}

// replayOut is what the layer replay measured.
type replayOut struct {
	symbolUs []float64 // per DemodulateSymbol / PickSymbolAlternates call
	phyUs    []float64 // phy.Decode (+ rx.ChaseDecode on CRC failure) per packet
	codecUs  []float64 // server.AppendIQBody + server.DecodeIQBody per frame
}

// layerReplay re-runs the layers the Gateway strings together, one call
// at a time, on the run's own input: detector scan in write-sized
// ranges, header and payload demodulation of each detected packet
// against the others' geometry, PHY and chase decode, and the wire
// codec on write-sized frames. Every call is a span.
func layerReplay(in *input, tr *tracer) (*replayOut, error) {
	fc := frameConfig(in.cfg)
	st := in.stations[0]
	base := max(0, st.sched[0].start-16*in.sym)
	n := min(int64(replayAir), st.blockLen()-base)
	iq := make([]complex128, n)
	st.fill(iq, base)
	src := &rx.MemorySource{Base: base, Samples: iq}
	det, err := rx.NewDetector(fc, rx.DetectorOptions{})
	if err != nil {
		return nil, err
	}
	dm, err := core.NewDemodulator(fc, core.Options{})
	if err != nil {
		return nil, err
	}
	parent := tr.add("replay", "", tr.root, time.Now(), time.Now())
	var found []*rx.Packet
	for from := base; from < base+n; from += chunkSamples {
		var ps []*rx.Packet
		tr.call("rx.ScanDownchirpRange", parent, func() { ps = det.ScanDownchirpRange(src, from, min(from+chunkSamples, base+n)) })
		for _, p := range ps {
			dup := false
			for _, q := range found {
				dup = dup || max(p.Start-q.Start, q.Start-p.Start) < in.sym/2
			}
			if !dup {
				p.ID = len(found) + 1
				p.NSymbols = phy.MaxSymbolCount(fc.PHY)
				found = append(found, p)
			}
		}
	}
	out := &replayOut{}
	symbol := func(name string, fn func()) {
		out.symbolUs = append(out.symbolUs, float64(tr.call(name, parent, fn))/1e3)
	}
	for i, p := range found {
		if i == replayPackets {
			break
		}
		others := make([]*rx.Packet, 0, len(found)-1)
		for _, q := range found {
			if q != p {
				others = append(others, q)
			}
		}
		syms := make([]uint16, 0, p.NSymbols)
		for s := 0; s < phy.HeaderSymbolCount; s++ {
			symbol("core.DemodulateSymbol", func() { syms = append(syms, dm.DemodulateSymbol(src, p, s, others)) })
		}
		var hdr phy.Header
		var ok bool
		tr.call("rx.HeaderFromSymbols", parent, func() { hdr, ok = rx.HeaderFromSymbols(syms, fc.PHY) })
		if !ok {
			continue
		}
		pcfg := fc.PHY
		pcfg.CR, pcfg.HasCRC = hdr.CR, hdr.HasCRC
		p.NSymbols = phy.SymbolCount(pcfg, int(hdr.Length))
		var alts [][]uint16
		for s := phy.HeaderSymbolCount; s < p.NSymbols; s++ {
			symbol("core.PickSymbolAlternates", func() {
				ranked := dm.PickSymbolAlternates(src, p, s, others)
				syms = append(syms, ranked[0])
				alts = append(alts, append([]uint16(nil), ranked...))
			})
		}
		var d time.Duration
		var dec *phy.DecodeResult
		d += tr.call("phy.Decode", parent, func() { dec, err = phy.Decode(syms, fc.PHY) })
		if err == nil && !dec.CRCOK {
			d += tr.call("rx.ChaseDecode", parent, func() { rx.ChaseDecode(syms, alts, fc.PHY) })
		}
		out.phyUs = append(out.phyUs, float64(d)/1e3)
	}
	body := make([]byte, 0, 8*chunkSamples)
	dst := make([]complex128, 0, chunkSamples)
	for f := int64(0); f < replayFrames; f++ {
		frame := iq[(f*chunkSamples)%(n-chunkSamples):][:chunkSamples]
		var derr error
		d := tr.call("server.AppendIQBody", parent, func() { body = server.AppendIQBody(body[:0], frame) })
		d += tr.call("server.DecodeIQBody", parent, func() { dst, derr = server.DecodeIQBody(dst[:0], body) })
		if derr != nil {
			return nil, fmt.Errorf("wire codec replay: %w", derr)
		}
		out.codecUs = append(out.codecUs, float64(d)/1e3)
	}
	return out, nil
}

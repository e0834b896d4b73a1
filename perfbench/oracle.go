package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"cic"
	"cic/internal/server"
)

// sinkRec is one decoded record as the benchmark received it: from
// Gateway.Packets() in process, or from the router's NDJSON sink.
type sinkRec struct {
	server.Record
	at  time.Time
	fed int64 // closed loop: stream samples handed to the gateway by then
}

// toRecord renders a gateway packet the way a server session publishes
// it (see server.Session.publish), so in-process and routed output
// compare field for field.
func toRecord(station string, seq int, p cic.Packet) server.Record {
	return server.Record{
		Station:      station,
		Seq:          seq,
		Start:        p.Start,
		OK:           p.OK,
		SNRdB:        p.SNR,
		CFOHz:        p.CFO,
		FECCorrected: p.FECCorrected,
		Payload:      hex.EncodeToString(p.Payload),
	}
}

// verdict is the output oracle's tally for one run. A violation of the
// delivery contract (air-time order, exactly-once delivery, routed
// output equal to an in-process decode) makes the whole run incorrect.
// A false OK (a CRC-OK record matching no emission) is counted and
// lowers ok_precision; more than maxFalseOKShare of them make the run
// incorrect too (see settle).
type verdict struct {
	offered    int // emissions whose air ended inside the stream
	matched    int // CRC-OK records matching an offered emission
	okRecords  int
	falseOK    int // CRC-OK records matching no emission
	falseOKs   []string
	violations []string
}

func (v *verdict) violate(format string, args ...any) {
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// correct reports whether the run passed every oracle check.
func (v *verdict) correct() bool { return len(v.violations) == 0 }

// maxFalseOKShare is the largest share of a run's CRC-OK records that
// may match no emission. The payload CRC is 16 bits, so a garbage
// decode (a wrong header length, a chase-decoder substitution) passes
// it once in 65536 checks: dense-k8 sees about one false OK per 3000
// CRC-OK records, at random. A share above this is no CRC collision but
// a decoder or delivery fault.
const maxFalseOKShare = 0.01

// settle applies the run-level false-OK limit once every station's
// records are checked.
func (v *verdict) settle() {
	if float64(v.falseOK) > maxFalseOKShare*float64(v.okRecords) {
		v.violate("%d of %d CRC-OK records match no emission, more than the %g a 16-bit CRC explains",
			v.falseOK, v.okRecords, maxFalseOKShare)
	}
}

// emissionRef names one emission of the replayed stream.
type emissionRef struct {
	replay int64
	idx    int
}

// nearest returns the emissions of st's stream starting within half a
// symbol of start.
func (in *input) nearest(st *station, start int64) []emissionRef {
	var out []emissionRef
	half := in.sym / 2
	n := st.blockLen()
	r0 := start / n
	for r := max(0, r0-1); r <= r0+1; r++ {
		off := start - r*n
		i := sort.Search(len(st.sched), func(i int) bool { return st.sched[i].start >= off-half })
		for ; i < len(st.sched) && st.sched[i].start <= off+half; i++ {
			out = append(out, emissionRef{r, i})
		}
	}
	return out
}

// airEnd is the stream sample just past the emission that record start
// most likely belongs to: the nearest emission within half a symbol,
// else a nominal 20-byte packet from start.
func (in *input) airEnd(st *station, start int64) int64 {
	best, bestD := int64(-1), int64(0)
	for _, ref := range in.nearest(st, start) {
		e := st.sched[ref.idx]
		s := ref.replay*st.blockLen() + e.start
		d := max(s-start, start-s)
		if best < 0 || d < bestD {
			best, bestD = s+in.pktLen, d
		}
	}
	if best < 0 {
		return start + in.pktLen
	}
	return best
}

// check matches one station's records (delivery order) against the
// emissions of its first written stream samples: a CRC-OK record is
// correct when it carries an emission's payload with its start within
// half a symbol; no emission may be delivered twice, and records must
// come in air-time order.
func (in *input) check(v *verdict, st *station, written int64, recs []sinkRec) {
	offered := st.offered(written)
	v.offered += len(offered)
	seen := map[emissionRef]bool{}
	for i, r := range recs {
		if i > 0 && r.Start < recs[i-1].Start {
			v.violate("%s: record %d start %d precedes record %d start %d", st.name, i, r.Start, i-1, recs[i-1].Start)
		}
		if !r.OK {
			continue
		}
		v.okRecords++
		payload, err := hex.DecodeString(r.Payload)
		if err != nil {
			v.violate("%s: record %d payload %q is not hex", st.name, i, r.Payload)
			continue
		}
		var hit *emissionRef
		for _, ref := range in.nearest(st, r.Start) {
			if bytes.Equal(st.sched[ref.idx].payload, payload) {
				hit = &ref
				break
			}
		}
		if hit == nil {
			v.falseOK++
			v.falseOKs = append(v.falseOKs, fmt.Sprintf("%s: CRC-OK record %d (start %d, payload %s) matches no emission", st.name, i, r.Start, r.Payload))
			continue
		}
		if seen[*hit] {
			v.violate("%s: emission at %d delivered twice", st.name, hit.replay*st.blockLen()+st.sched[hit.idx].start)
			continue
		}
		seen[*hit] = true
		if hit.replay*st.blockLen()+st.sched[hit.idx].end <= written {
			v.matched++
		}
	}
}

// checkExactlyOnce compares a station's routed records with an
// in-process Gateway decode of the same stream: record i carries
// sequence number i, and with session ids dropped the two record
// streams are identical.
func checkExactlyOnce(v *verdict, station string, got []sinkRec, want []server.Record) {
	for i, r := range got {
		if r.Seq != i {
			v.violate("%s: routed record %d has seq %d (gap or duplicate)", station, i, r.Seq)
			return
		}
	}
	if len(got) != len(want) {
		v.violate("%s: %d routed records, in-process decode gives %d", station, len(got), len(want))
		return
	}
	for i := range want {
		a, b := got[i].Record, want[i]
		a.Session, b.Session = 0, 0
		if a != b {
			v.violate("%s: routed record %d = %+v, in-process decode gives %+v", station, i, a, b)
			return
		}
	}
}

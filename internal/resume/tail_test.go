package resume

import (
	"errors"
	"slices"
	"testing"
)

// body encodes samples with values [from, from+n).
func body(from, n int64) []byte {
	var b []byte
	for v := from; v < from+n; v++ {
		b = append(b, sampleBody(v)...)
	}
	return b
}

func flatten(chunks [][]byte) []int64 {
	var out []int64
	for _, c := range chunks {
		out = append(out, samples(c)...)
	}
	return out
}

func span(from, to int64) []int64 {
	var out []int64
	for v := from; v < to; v++ {
		out = append(out, v)
	}
	return out
}

// TestTailPartialFrames covers what the model check's one-sample frames
// cannot: trimming and replaying from inside a multi-sample frame, with
// the frame boundaries after the cut preserved.
func TestTailPartialFrames(t *testing.T) {
	var tl Tail
	tl.Append(body(0, 4))
	tl.Append(body(4, 3))
	tl.Append(body(7, 5))
	if tl.Start() != 0 || tl.End() != 12 || tl.Len() != 12 {
		t.Fatalf("tail [%d,%d) len %d, want [0,12) len 12", tl.Start(), tl.End(), tl.Len())
	}
	for off := int64(0); off <= 12; off++ {
		if got := flatten(tl.From(off)); !slices.Equal(got, span(off, 12)) {
			t.Fatalf("From(%d) = %v", off, got)
		}
	}
	if got := len(tl.From(5)); got != 2 {
		t.Errorf("From(5) spans %d frames, want 2 (the cut frame and the last)", got)
	}

	if n := tl.TrimTo(5); n != 5 || tl.Start() != 5 || tl.Len() != 7 {
		t.Fatalf("TrimTo(5) = %d, tail [%d,%d) len %d", n, tl.Start(), tl.End(), tl.Len())
	}
	if n := tl.TrimTo(3); n != 0 || tl.Start() != 5 {
		t.Fatalf("TrimTo below Start trimmed %d, start %d", n, tl.Start())
	}
	if got := flatten(tl.From(0)); !slices.Equal(got, span(5, 12)) {
		t.Fatalf("From below Start = %v, want the whole tail", got)
	}

	for off, want := range map[int64]Verdict{4: Gap, 5: ReplayFrom, 9: ReplayFrom, 12: ReplayFrom, 13: FastForward} {
		v, err := tl.Reconcile(off)
		if v != want || (v == Gap) != errors.Is(err, ErrResumeGap) {
			t.Errorf("Reconcile(%d) = %d, %v; want %d", off, v, err, want)
		}
	}

	if n := tl.TrimTo(100); n != 7 || tl.Start() != 12 || tl.Len() != 0 || len(tl.From(12)) != 0 {
		t.Fatalf("TrimTo past End = %d, tail [%d,%d)", n, tl.Start(), tl.End())
	}
	tl.Reset(40)
	tl.Append(body(40, 2))
	if got := flatten(tl.From(40)); tl.Start() != 40 || !slices.Equal(got, span(40, 42)) {
		t.Fatalf("after Reset(40): start %d, From = %v", tl.Start(), got)
	}
}

package resume

import "fmt"

// SampleBytes is the encoded size of one cf32 sample (I, Q float32).
const SampleBytes = 8

// Tail is a sender's retained tail: the encoded cf32 frame bodies of
// the samples in [Start, End), oldest first. Bodies stay encoded (8
// bytes per sample) so a replay writes them back verbatim, with their
// original frame boundaries. The owner serialises access.
type Tail struct {
	chunks [][]byte // bodies; chunks[0] may be a suffix of a frame
	start  int64    // absolute sample offset of chunks[0]
	n      int64    // retained samples
}

// Start is the absolute offset of the oldest retained sample.
func (t *Tail) Start() int64 { return t.start }

// End is the stream position the next appended sample takes.
func (t *Tail) End() int64 { return t.start + t.n }

// Len is the retained sample count.
func (t *Tail) Len() int64 { return t.n }

// Append retains one frame body at End; the tail owns body from here on.
func (t *Tail) Append(body []byte) {
	t.chunks = append(t.chunks, body)
	t.n += int64(len(body) / SampleBytes)
}

// TrimTo discards every sample before off (clamped to End) and returns
// how many it discarded. A sender trims to each acknowledged offset, or
// to End minus its retention cap.
func (t *Tail) TrimTo(off int64) int64 {
	end := t.End()
	off = min(off, end)
	trimmed := off - t.start
	if trimmed <= 0 {
		return 0
	}
	for pos := t.start; len(t.chunks) > 0; {
		k := int64(len(t.chunks[0]) / SampleBytes)
		if pos+k > off {
			t.chunks[0] = t.chunks[0][(off-pos)*SampleBytes:]
			break
		}
		t.chunks[0] = nil // do not keep the body alive in the backing array
		t.chunks = t.chunks[1:]
		pos += k
	}
	t.start, t.n = off, end-off
	return trimmed
}

// Reset discards everything and repositions the tail at off.
func (t *Tail) Reset(off int64) { *t = Tail{start: off} }

// Verdict is how a sender continues from the receiver's resume offset.
type Verdict uint8

const (
	ReplayFrom  Verdict = iota // within [Start, End]: replay From(off)
	FastForward                // past End: a restarted sender; nothing to replay
	Gap                        // below Start: the samples are gone (ErrResumeGap)
)

// Reconcile classifies the receiver's resume offset against the tail. An
// offset below Start is always a Gap with an error wrapping
// ErrResumeGap, whatever the caller's policy then does with it.
func (t *Tail) Reconcile(off int64) (Verdict, error) {
	switch {
	case off < t.start:
		return Gap, fmt.Errorf("%w (receiver at %d, retained from %d)", ErrResumeGap, off, t.start)
	case off > t.End():
		return FastForward, nil
	}
	return ReplayFrom, nil
}

// From returns the bodies covering [off, End), the first sliced to begin
// exactly at off (clamped to Start). The slice is fresh and trimming
// never mutates a body, so it may be written out after the owner's lock
// is released.
func (t *Tail) From(off int64) [][]byte {
	out := make([][]byte, 0, len(t.chunks))
	pos := t.start
	for _, c := range t.chunks {
		k := int64(len(c) / SampleBytes)
		if pos+k > off {
			if pos < off {
				c = c[(off-pos)*SampleBytes:]
			}
			out = append(out, c)
		}
		pos += k
	}
	return out
}

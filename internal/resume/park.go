package resume

import (
	"sync"
	"time"

	"cic/internal/obs"
)

// resumeGrace bounds how long a RESUME waits for the station's dying
// connection to park its session: a client that detected the failure
// first can reconnect before the receiver has seen the disconnect, and
// reclaiming must win that race or the client would be handed a fresh
// session at offset 0 while the old one still holds the stream.
const resumeGrace = 3 * time.Second

// Table is a receiver's park table: resumable sessions between
// connections, keyed by station, each with an expiry timer. It also
// counts the attached sessions per station, so a RESUME can wait out
// resumeGrace while the previous connection is still tearing down.
//
// A parked entry leaves the table exactly once — reclaimed, expired or
// taken by Close — and Timer.Stop arbitrates a reclaim racing the
// expiry: the reclaim wins only by stopping the timer before it fires.
// release runs exactly once for every entry that expires or that Close
// takes; a reclaimed entry goes back to its caller instead.
type Table[V any] struct {
	timeout time.Duration
	parkedG *obs.Gauge
	release func(v V, expired bool)

	// grace and afterFunc are resumeGrace and time.AfterFunc outside tests.
	grace     time.Duration
	afterFunc func(time.Duration, func()) interface{ Stop() bool }

	mu       sync.Mutex
	closed   bool
	attached map[string]int
	parked   map[string]*entry[V]
}

type entry[V any] struct {
	v     V
	phase Phase
	timer interface{ Stop() bool }
}

// NewTable builds a park table with the given resume window (≤ 0
// disables parking). parked, when non-nil, tracks the parked count;
// release drains and frees an entry whose window elapsed (expired) or
// that Close took.
func NewTable[V any](timeout time.Duration, parked *obs.Gauge, release func(v V, expired bool)) *Table[V] {
	return &Table[V]{
		timeout: timeout,
		parkedG: parked,
		release: release,
		grace:   resumeGrace,
		afterFunc: func(d time.Duration, f func()) interface{ Stop() bool } {
			return time.AfterFunc(d, f)
		},
		attached: map[string]int{},
		parked:   map[string]*entry[V]{},
	}
}

// Attach counts a new resumable session for key as attached.
func (t *Table[V]) Attach(key string) {
	t.mu.Lock()
	t.attached[key]++
	t.mu.Unlock()
}

// Leave ends an attached session's connection. With park set it parks
// v under key for the resume window and returns true; otherwise, or
// when parking is disabled, the table is closed or key already has a
// parked entry, it only detaches v and returns false — the caller then
// finishes the session itself.
func (t *Table[V]) Leave(key string, v V, park bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attached[key]--; t.attached[key] <= 0 {
		delete(t.attached, key)
	}
	if !park || t.timeout <= 0 || t.closed || t.parked[key] != nil {
		return false
	}
	e := &entry[V]{v: v}
	e.phase, _ = Step(Attached, Drop)
	e.timer = t.afterFunc(t.timeout, func() { t.expire(key, e) }) //cic:lock-ok: time.AfterFunc only schedules; arming under mu makes the entry and its timer visible together
	t.parked[key] = e
	t.parkedG.Set(int64(len(t.parked)))
	return true
}

// Reclaim hands key's parked entry back to a RESUME when match accepts
// it, re-attaching it. While key still has an attached session it
// retries for up to the grace window. It returns false when there is
// nothing to reclaim: no parked entry, a mismatch, the timer already
// fired, or the table is closed.
func (t *Table[V]) Reclaim(key string, match func(V) bool) (V, bool) {
	deadline := time.Now().Add(t.grace)
	for {
		t.mu.Lock()
		e := t.parked[key]
		wait := t.attached[key] > 0 && !t.closed
		if e != nil && !t.closed && match(e.v) && e.timer.Stop() { //cic:lock-ok: match is the caller's pure handshake comparison; Stop must run under mu to arbitrate against expire
			e.phase, _ = Step(e.phase, Reclaim)
			delete(t.parked, key)
			t.attached[key]++
			t.parkedG.Set(int64(len(t.parked)))
			t.mu.Unlock()
			return e.v, true
		}
		t.mu.Unlock()
		if !wait || !time.Now().Before(deadline) {
			var zero V
			return zero, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expire is an entry's timer callback: it releases the entry unless a
// reclaim or Close took it first.
func (t *Table[V]) expire(key string, e *entry[V]) {
	t.mu.Lock()
	next, ok := Step(e.phase, Expire)
	if ok {
		e.phase = next
		delete(t.parked, key)
		t.parkedG.Set(int64(len(t.parked)))
	}
	t.mu.Unlock()
	if ok {
		t.release(e.v, true)
	}
}

// Close takes every parked entry: it closes the table (no later park or
// reclaim succeeds), stops the timers, releases the entries concurrently
// and returns once every release finished.
func (t *Table[V]) Close() {
	t.mu.Lock()
	t.closed = true
	taken := make([]V, 0, len(t.parked))
	for key, e := range t.parked {
		e.timer.Stop()
		e.phase, _ = Step(e.phase, Finish)
		taken = append(taken, e.v)
		delete(t.parked, key)
	}
	t.parkedG.Set(0)
	t.mu.Unlock()
	var wg sync.WaitGroup
	for _, v := range taken {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.release(v, false)
		}()
	}
	wg.Wait()
}

// Len reports the parked-entry count.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.parked)
}

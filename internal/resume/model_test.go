package resume

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The bounded model check drives the real Tail, Table and Step through
// every interleaving of protocol events up to a fixed depth, with one
// sender (a client or the router's upstream side) streaming to one
// receiver over a lossy connection. Sample i of the written stream
// carries the value i, so "exact prefix" is checkable sample by sample.
//
// The connection drop is atomic (both ends see it before the next
// event): the resume grace window exists to make that true in the real
// system and is pinned by the timing tests in internal/server.

// policy is the sender's caller policy.
type policy struct {
	name      string
	trimOnAck bool  // the client trims its tail on every ACK
	retainCap int64 // the router trims to End-retainCap (0 = never)
	failover  bool  // the router can fail over to a fresh receiver at offset 0
	restart   bool  // the client process can restart with an empty tail
}

// fakeTimer is a deterministic stand-in for the park timer: fire marks
// it expired (Stop then fails, as for a time.Timer whose function has
// started) and the pending callback runs as a separate event.
type fakeTimer struct {
	fn             func()
	fired, stopped bool
	outcome        string // how its park episode ended: "reclaim", "expire" or "taken"
}

func (f *fakeTimer) Stop() bool {
	if f.fired || f.stopped {
		return false
	}
	f.stopped = true
	return true
}

// rsess is one receiver-side session.
type rsess struct {
	id       int
	ingested []int64
	phase    Phase
	releases int
	lossy    bool       // fed by a replay the sender reported as a Gap
	timer    *fakeTimer // the current park episode's timer
	err      error      // an episode ended twice
}

// endEpisode records how s's current park episode ended.
func (s *rsess) endEpisode(how string) {
	if s.timer.outcome != "" && s.err == nil {
		s.err = fmt.Errorf("session %d park episode ended by %s after %s", s.id, how, s.timer.outcome)
	}
	s.timer.outcome = how
}

// ackOK marks the CLOSE acknowledgement among the down frames.
const ackOK = -1

// mconn is one connection: client→receiver frames (sample bodies, nil
// for CLOSE) and receiver→client frames (ACK offsets, or ackOK).
type mconn struct {
	sess *rsess
	up   [][]byte // nil body = CLOSE
	down []int64
}

type world struct {
	p policy

	// sender
	tail    Tail
	acked   int64
	written int64
	conn    *mconn
	closing bool
	done    bool
	failed  bool

	// receiver
	table    *Table[*rsess]
	sessions []*rsess
	timers   []*fakeTimer
	pending  []*fakeTimer // fired, callback not yet run
}

const (
	maxWrites = 3
	station   = "st"
)

func newWorld(p policy) *world {
	w := &world{p: p}
	w.table = NewTable[*rsess](1, nil, func(s *rsess, expired bool) {
		s.phase, _ = Step(s.phase, Finish)
		s.releases++
		if expired {
			s.endEpisode("expire")
		} else {
			s.endEpisode("taken")
		}
	})
	w.table.grace = 0
	w.table.afterFunc = func(_ time.Duration, fn func()) interface{ Stop() bool } {
		t := &fakeTimer{fn: fn}
		w.timers = append(w.timers, t)
		return t
	}
	return w
}

func sampleBody(v int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(v))
}

func samples(body []byte) []int64 {
	var out []int64
	for i := 0; i+SampleBytes <= len(body); i += SampleBytes {
		out = append(out, int64(binary.LittleEndian.Uint64(body[i:])))
	}
	return out
}

// newSession admits a fresh receiver session (offset 0).
func (w *world) newSession() *rsess {
	s := &rsess{id: len(w.sessions)}
	w.sessions = append(w.sessions, s)
	w.table.Attach(station)
	return s
}

// finish ends an attached session outside the park table (CLOSE drain).
func (w *world) finish(s *rsess) error {
	next, ok := Step(s.phase, Finish)
	if !ok {
		return fmt.Errorf("session %d finished in phase %d", s.id, s.phase)
	}
	s.phase = next
	s.releases++
	return nil
}

// leave is the receiver seeing its connection die: park, or finish.
func (w *world) leave(s *rsess) error {
	if w.table.Leave(station, s, true) {
		s.phase, _ = Step(s.phase, Drop)
		s.timer = w.timers[len(w.timers)-1]
		return nil
	}
	return w.finish(s)
}

type event struct {
	name  string
	apply func(w *world) error
}

func (w *world) canSend() bool { return !w.done && !w.failed }

// events lists the events enabled in w.
func (w *world) events() []event {
	var evs []event
	if w.canSend() && !w.closing && w.written < maxWrites {
		evs = append(evs, event{"write", (*world).write})
	}
	if c := w.conn; c != nil {
		if len(c.up) > 0 {
			evs = append(evs, event{"deliver", (*world).deliverUp})
		}
		if len(c.down) > 0 {
			evs = append(evs, event{"ack", (*world).deliverDown})
			if c.down[0] != ackOK {
				evs = append(evs, event{"acklost", (*world).ackLost})
			}
		}
		evs = append(evs, event{"drop", (*world).drop})
		if w.p.failover && c.sess != nil {
			evs = append(evs, event{"failover", (*world).failoverEv})
		}
		if w.canSend() && !w.closing {
			evs = append(evs, event{"close", (*world).close})
		}
	} else if w.canSend() {
		evs = append(evs, event{"resume", (*world).resume})
	}
	if w.p.restart && w.canSend() {
		evs = append(evs, event{"restart", (*world).restartEv})
	}
	for _, t := range w.timers {
		if !t.fired && !t.stopped {
			evs = append(evs, event{"fire", func(w *world) error { return w.fire(t) }})
		}
	}
	if len(w.pending) > 0 {
		evs = append(evs, event{"expire", (*world).expire})
	}
	return evs
}

func (w *world) write() error {
	body := sampleBody(w.written)
	w.written++
	w.tail.Append(body)
	if w.p.retainCap > 0 {
		w.tail.TrimTo(w.tail.End() - w.p.retainCap)
	}
	if w.conn != nil {
		w.conn.up = append(w.conn.up, body)
	}
	return nil
}

func (w *world) deliverUp() error {
	c := w.conn
	body := c.up[0]
	c.up = c.up[1:]
	s := c.sess
	if s == nil {
		return nil // the receiver session already ended (CLOSE handled)
	}
	if s.phase != Attached {
		return fmt.Errorf("frame delivered to session %d in phase %d", s.id, s.phase)
	}
	if body == nil {
		c.sess = nil
		c.down = append(c.down, ackOK)
		w.table.Leave(station, s, false)
		return w.finish(s)
	}
	s.ingested = append(s.ingested, samples(body)...)
	c.down = append(c.down, int64(len(s.ingested)))
	return nil
}

func (w *world) deliverDown() error {
	c := w.conn
	off := c.down[0]
	c.down = c.down[1:]
	if off == ackOK {
		w.done = true
		return nil
	}
	if off > w.acked {
		w.acked = off
		if w.p.trimOnAck {
			w.tail.TrimTo(off)
		}
	}
	return nil
}

func (w *world) ackLost() error {
	w.conn.down = w.conn.down[1:]
	return nil
}

// drop kills the connection; both ends notice.
func (w *world) drop() error {
	c := w.conn
	w.conn = nil
	if c.sess != nil {
		return w.leave(c.sess)
	}
	return nil
}

// failoverEv: the receiver process dies (its session and table go with
// it) and the router reconnects to a fresh receiver at offset 0.
func (w *world) failoverEv() error {
	old := w.conn.sess
	w.conn = nil
	w.table.Leave(station, old, false)
	if err := w.finish(old); err != nil {
		return err
	}
	return w.connect(w.newSession())
}

// resume reconnects: RESUME reclaims the parked session, or opens a
// fresh one at offset 0.
func (w *world) resume() error {
	s, ok := w.table.Reclaim(station, func(*rsess) bool { return true })
	if ok {
		next, applies := Step(s.phase, Reclaim)
		if !applies {
			return fmt.Errorf("reclaimed session %d in phase %d", s.id, s.phase)
		}
		s.phase = next
		s.endEpisode("reclaim")
	} else {
		s = w.newSession()
	}
	return w.connect(s)
}

// connect runs the sender's side of the offset reply on a new
// connection to s and replays from the reconciled offset.
func (w *world) connect(s *rsess) error {
	off := int64(len(s.ingested))
	below := off < w.tail.Start()
	v, err := w.tail.Reconcile(off)
	if (v == Gap) != below || (v == Gap) != (err != nil) || (err != nil && !errors.Is(err, ErrResumeGap)) {
		return fmt.Errorf("Reconcile(%d) on [%d,%d) = %d, %v", off, w.tail.Start(), w.tail.End(), v, err)
	}
	c := &mconn{sess: s}
	w.conn = c
	from := off
	switch v {
	case Gap:
		if w.p.trimOnAck {
			// The client gives up with ErrResumeGap and closes.
			w.failed = true
			return w.drop()
		}
		// The router replays what survives; the receiver's stream is
		// knowingly lossy from here on.
		s.lossy = true
		from = w.tail.Start()
	case FastForward:
		w.tail.Reset(off)
		w.written = off // the restarted sender skips its input prefix
		from = off
	default:
		if w.p.trimOnAck {
			w.tail.TrimTo(off)
		}
	}
	w.acked = max(w.acked, off)
	c.up = append(c.up, w.tail.From(from)...)
	if w.closing {
		c.up = append(c.up, nil)
	}
	return nil
}

func (w *world) close() error {
	w.closing = true
	w.conn.up = append(w.conn.up, nil)
	return nil
}

// restartEv: the client process dies and restarts with an empty tail;
// the old connection dies with it.
func (w *world) restartEv() error {
	if w.conn != nil {
		if err := w.drop(); err != nil {
			return err
		}
	}
	w.tail = Tail{}
	w.acked, w.written, w.closing = 0, 0, false
	return nil
}

func (w *world) fire(t *fakeTimer) error {
	t.fired = true
	w.pending = append(w.pending, t)
	return nil
}

func (w *world) expire() error {
	t := w.pending[0]
	w.pending = w.pending[1:]
	t.fn()
	return nil
}

// check asserts the invariants that must hold in every state.
func (w *world) check() error {
	for _, s := range w.sessions {
		if s.releases > 1 {
			return fmt.Errorf("session %d released %d times", s.id, s.releases)
		}
		if s.err != nil {
			return s.err
		}
		if s.lossy {
			continue
		}
		for i, v := range s.ingested {
			if v != int64(i) {
				return fmt.Errorf("session %d ingested %v: not a prefix of the written stream", s.id, s.ingested)
			}
		}
		if int64(len(s.ingested)) > w.written && !w.p.restart {
			return fmt.Errorf("session %d ingested %d of %d written samples", s.id, len(s.ingested), w.written)
		}
	}
	for _, t := range w.timers {
		if t.fired && t.stopped {
			return errors.New("a park timer both fired and was stopped")
		}
	}
	return nil
}

// shutdown runs the receiver's shutdown on w (the park table's take-all,
// then any expiry callbacks already pending, then every attached
// session) and asserts every session's reservation was released exactly
// once.
func (w *world) shutdown() error {
	w.table.Close()
	for len(w.pending) > 0 {
		if err := w.expire(); err != nil {
			return err
		}
	}
	for _, s := range w.sessions {
		if s.phase == Attached {
			if err := w.finish(s); err != nil {
				return err
			}
		}
		if s.releases != 1 {
			return fmt.Errorf("session %d released %d times at shutdown", s.id, s.releases)
		}
	}
	return nil
}

// key canonically encodes the state for the explored-state memo.
func (w *world) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%v|%d|%d|%v%v%v|", w.tail.Start(), w.tail.From(0), w.acked, w.written,
		w.closing, w.done, w.failed)
	if c := w.conn; c != nil {
		sid := -1
		if c.sess != nil {
			sid = c.sess.id
		}
		fmt.Fprintf(&b, "c%d%v%v|", sid, c.up, c.down)
	}
	for _, s := range w.sessions {
		fmt.Fprintf(&b, "s%v%d%d%v|", s.ingested, s.phase, s.releases, s.lossy)
	}
	for _, t := range w.timers {
		fmt.Fprintf(&b, "t%v%v%s", t.fired, t.stopped, t.outcome)
	}
	for _, t := range w.pending {
		for i, u := range w.timers {
			if t == u {
				fmt.Fprintf(&b, "p%d", i)
			}
		}
	}
	fmt.Fprintf(&b, "|a%d|k%d", w.table.attached[station], len(w.table.parked))
	return b.String()
}

// explore replays trace onto a fresh world, checks it, and recurses
// into every enabled event until depth runs out. seen memoises states
// already explored with at least as much remaining depth.
func explore(t *testing.T, p policy, trace []int, depth int, seen map[string]int, states *int) {
	w := newWorld(p)
	names := make([]string, 0, len(trace))
	for _, i := range trace {
		ev := w.events()[i]
		names = append(names, ev.name)
		if err := ev.apply(w); err != nil {
			t.Fatalf("%s: after %v: %v", p.name, names, err)
		}
	}
	if err := w.check(); err != nil {
		t.Fatalf("%s: after %v: %v", p.name, names, err)
	}
	k := w.key()
	if d, ok := seen[k]; ok && d >= depth {
		return
	}
	seen[k] = depth
	*states++
	n := len(w.events())
	if err := w.shutdown(); err != nil {
		t.Fatalf("%s: after %v then shutdown: %v", p.name, names, err)
	}
	if depth == 0 {
		return
	}
	for i := 0; i < n; i++ {
		explore(t, p, append(trace[:len(trace):len(trace)], i), depth-1, seen, states)
	}
}

// TestModelResumeProtocol enumerates every interleaving, up to depth
// modelDepth, of write, frame delivery, ACK delivery and loss,
// connection drop, RESUME, park-timer firing and expiry, CLOSE/drain,
// and — per policy — client restart or router failover to a fresh
// receiver at offset 0, and checks that:
//   - every receiver session ingests an exact prefix of the written
//     stream (no gap, no duplicate), unless the sender reported a Gap;
//   - Reconcile returns Gap (wrapping ErrResumeGap) exactly when the
//     offset is below the tail start;
//   - a park episode ends in a reclaim or an expiry, never both;
//   - every session's reservation is released exactly once.
func TestModelResumeProtocol(t *testing.T) {
	depth := 10
	if testing.Short() {
		depth = 8
	}
	for _, p := range []policy{
		{name: "client", trimOnAck: true, restart: true},
		{name: "router", failover: true},
		{name: "router-capped", failover: true, retainCap: 1},
	} {
		seen := map[string]int{}
		states := 0
		explore(t, p, nil, depth, seen, &states)
		t.Logf("%s: %d states explored to depth %d", p.name, states, depth)
	}
}

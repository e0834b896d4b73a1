package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cic"
	"cic/internal/resume"
)

// Reconnect defaults.
const (
	DefaultMaxAttempts  = 8
	DefaultBaseBackoff  = 100 * time.Millisecond
	DefaultMaxBackoff   = 5 * time.Second
	DefaultCloseTimeout = 60 * time.Second
)

// ReconnectOptions parameterises a ReconnectingClient. Station, Config
// and either Addr or Dial are required.
type ReconnectOptions struct {
	// Station and Config form the RESUME handshake (must be identical
	// across reconnects — the server matches parked sessions on both).
	Station string
	Config  cic.Config
	// Addr is the daemon's ingestion address, dialled with DialTimeout.
	Addr string
	// Context cancels the client: default dials abort with it, and a
	// cancellation lands *immediately* — a reconnect backoff sleep in
	// flight is interrupted rather than run to completion (nil =
	// context.Background()). Custom Dial hooks should honour it too.
	Context context.Context
	// DialTimeout bounds each TCP connect (DefaultDialTimeout when 0).
	DialTimeout time.Duration
	// Dial overrides the transport — the fault-injection hook for
	// tests (wrap the returned conn with internal/fault.WrapConn).
	Dial func() (net.Conn, error)
	// MaxAttempts caps *consecutive* failed reconnect attempts before
	// the client gives up (DefaultMaxAttempts when 0; negative means
	// retry forever). The counter resets on every successful handshake.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// reconnect attempts; each sleep is uniformly jittered over
	// [d/2, d). Defaults: DefaultBaseBackoff, DefaultMaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// CloseTimeout bounds Close's drain-acknowledgement wait
	// (DefaultCloseTimeout when 0).
	CloseTimeout time.Duration
	// Seed makes the backoff jitter deterministic (tests); 0 selects a
	// fixed default seed — the client is deterministic by design.
	Seed int64
	// Logf logs reconnect events (silent when nil).
	Logf func(format string, args ...any)
}

// ReconnectingClient is a Client that survives connection loss: it
// opens a resumable session (RESUME handshake), retains every sample
// the server has not yet acknowledged, and on any transport error
// redials with exponential backoff, resumes the parked session, and
// replays exactly the unacknowledged tail — the server-side stream has
// no gaps and no duplicates.
//
// The write path (WriteIQ, StreamCF32, Close) must be driven by one
// goroutine; a background reader consumes the server's ACK frames
// concurrently.
type ReconnectingClient struct {
	o   ReconnectOptions
	rng *rand.Rand

	cur *ResumeConn // nil when disconnected

	mu         sync.Mutex
	tail       resume.Tail // unacknowledged frame bodies; End() is the stream position
	acked      int64       // highest server-acknowledged offset
	reconnects int64       // successful RESUME handshakes after the first
	closed     bool
}

// NewReconnectingClient builds the client; no connection is made until
// Connect or the first write.
func NewReconnectingClient(o ReconnectOptions) *ReconnectingClient {
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.CloseTimeout == 0 {
		o.CloseTimeout = DefaultCloseTimeout
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return &ReconnectingClient{o: o, rng: rand.New(rand.NewSource(seed))}
}

func (r *ReconnectingClient) logf(format string, args ...any) {
	if r.o.Logf != nil {
		r.o.Logf(format, args...)
	}
}

// ctx resolves the options context.
func (r *ReconnectingClient) ctx() context.Context {
	if r.o.Context != nil {
		return r.o.Context
	}
	return context.Background()
}

// dial opens the transport (options hook, else TCP to Addr bounded by
// DialTimeout and the options context).
func (r *ReconnectingClient) dial() (net.Conn, error) {
	if r.o.Dial != nil {
		return r.o.Dial()
	}
	ctx, cancel := context.WithTimeout(r.ctx(), r.o.DialTimeout)
	defer cancel()
	var d net.Dialer
	return d.DialContext(ctx, "tcp", r.o.Addr)
}

// Connect establishes (or re-establishes) the session and returns the
// server's resume offset — the number of samples it has already
// ingested for this station. A caller recovering from a process
// restart should skip that many samples of its input before streaming.
func (r *ReconnectingClient) Connect() (int64, error) {
	if err := r.connect(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail.Start(), nil
}

// ResumeOffset reports the absolute sample offset the next written
// sample continues from (== the last RESUME reply after Connect, before
// anything was written).
func (r *ReconnectingClient) ResumeOffset() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail.End()
}

// Reconnects counts successful RESUME handshakes after the initial
// connect — the number of recoveries.
func (r *ReconnectingClient) Reconnects() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Acked reports the highest sample offset the server has acknowledged
// as ingested.
func (r *ReconnectingClient) Acked() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

// Abort kills the connection without the CLOSE handshake and disables
// the client — an abrupt front-end death. A parked server session (and
// a later RESUME by a new client) can still pick the stream up.
func (r *ReconnectingClient) Abort() error {
	r.markClosed()
	if r.cur != nil {
		r.dropConn(r.cur)
	}
	return nil
}

// connect dials until a RESUME handshake succeeds (bounded by
// MaxAttempts consecutive failures) and replays the unacknowledged
// tail. A non-temporary server rejection (bad configuration) fails
// immediately; overload rejections honour the server's retry-after
// hint.
func (r *ReconnectingClient) connect() error {
	if r.cur != nil {
		return nil
	}
	backoff := r.o.BaseBackoff
	for attempt := 0; ; attempt++ {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
		if err := r.ctx().Err(); err != nil {
			return fmt.Errorf("server: reconnect aborted: %w", err)
		}
		err := r.tryConnect()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrResumeGap) {
			return err
		}
		var se *ServerError
		if errors.As(err, &se) && !se.Temporary() {
			return err
		}
		if r.o.MaxAttempts > 0 && attempt+1 >= r.o.MaxAttempts {
			return fmt.Errorf("server: reconnect: giving up after %d attempts: %w", attempt+1, err)
		}
		sleep := backoff/2 + time.Duration(r.rng.Int63n(int64(backoff/2)+1))
		if se != nil && se.RetryAfter > sleep {
			sleep = se.RetryAfter
		}
		r.logf("reconnect attempt %d failed (%v); retrying in %v", attempt+1, err, sleep)
		// The backoff sleep is context-cancellable: a canceled dial
		// context aborts the wait immediately, not after the interval.
		timer := time.NewTimer(sleep)
		select {
		case <-timer.C:
		case <-r.ctx().Done():
			timer.Stop()
			return fmt.Errorf("server: reconnect aborted: %w", r.ctx().Err())
		}
		if backoff *= 2; backoff > r.o.MaxBackoff {
			backoff = r.o.MaxBackoff
		}
	}
}

// tryConnect performs one dial + RESUME + replay cycle. The client's
// policy on the server's offset: a gap is fatal, a server ahead of the
// stream fast-forwards it, anything else trims to the offset and
// replays the rest.
func (r *ReconnectingClient) tryConnect() error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	c, off, err := OpenResume(conn, HelloFor(r.o.Station, r.o.Config), r.o.DialTimeout, r.noteAck)
	if err != nil {
		return err
	}

	r.mu.Lock()
	first := r.tail.End() == 0 && r.reconnects == 0
	switch v, err := r.tail.Reconcile(off); v {
	case resume.Gap:
		r.mu.Unlock()
		c.Close()
		return err
	case resume.FastForward:
		// The server is ahead of this process's stream position — a
		// restarted client resuming a parked session. The caller skips
		// the input via Connect's offset.
		r.tail.Reset(off)
	default:
		r.tail.TrimTo(off)
	}
	r.acked = max(r.acked, off)
	replay := r.tail.From(off)
	if !first {
		r.reconnects++
	}
	r.mu.Unlock()

	n, err := c.Replay(replay)
	switch {
	case err != nil:
		c.Close()
		return fmt.Errorf("server: replay after resume: %w", err)
	case n > 0:
		r.logf("resumed at offset %d, replaying %d samples", off, n)
	case !first:
		r.logf("resumed at offset %d (nothing to replay)", off)
	}
	r.cur = c
	return nil
}

// noteAck is the client's trim policy: an acknowledged offset releases
// every retained sample before it.
func (r *ReconnectingClient) noteAck(off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off > r.acked {
		r.acked = off
		r.tail.TrimTo(off)
	}
}

// dropConn closes a dead connection and waits for its reader.
func (r *ReconnectingClient) dropConn(c *ResumeConn) {
	c.Close()
	if r.cur == c {
		r.cur = nil
	}
}

// WriteIQ streams samples, transparently reconnecting and replaying the
// unacknowledged tail on any transport failure.
func (r *ReconnectingClient) WriteIQ(iq []complex128) error {
	bodies := make([][]byte, 0, 1+len(iq)/MaxIQSamples)
	for len(iq) > 0 {
		n := min(len(iq), MaxIQSamples)
		bodies = append(bodies, AppendIQBody(make([]byte, 0, 8*n), iq[:n]))
		iq = iq[n:]
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return net.ErrClosed
	}
	for _, b := range bodies {
		r.tail.Append(b)
	}
	r.mu.Unlock()
	for r.cur != nil {
		if _, err := r.cur.Replay(bodies); err == nil {
			return nil
		}
		r.dropConn(r.cur)
	}
	// connect replays the whole retained tail, which includes bodies.
	return r.connect()
}

// Close ends the stream: CLOSE, drain acknowledgement, disconnect —
// reconnecting and retrying if the connection dies during the drain
// wait. A nil return means every sample reached a published state.
func (r *ReconnectingClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	deadline := time.Now().Add(r.o.CloseTimeout)
	for {
		if r.cur == nil {
			if err := r.connect(); err != nil {
				r.markClosed()
				return err
			}
		}
		c := r.cur
		err := c.Drain(deadline)
		if err == nil || errors.Is(err, ErrDrainTimeout) {
			r.markClosed()
			r.dropConn(c)
			if err != nil {
				return fmt.Errorf("server: close: no drain acknowledgement within %v", r.o.CloseTimeout)
			}
			return nil
		}
		// Connection died before the drain ack; resume and retry.
		r.logf("close interrupted (%v); retrying", err)
		r.dropConn(c)
	}
}

func (r *ReconnectingClient) markClosed() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

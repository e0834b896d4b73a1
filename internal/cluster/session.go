package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cic/internal/resume"
	"cic/internal/server"
)

// session is one routed client session: the router terminates the
// client's v2 protocol here, retains the stream for replay, and proxies
// it upstream to the station's shard. Exactly one goroutine drives a
// session at a time (the connection handler, or — after the handler
// released it — the park-expiry / shutdown drain), so the retention and
// upstream fields need no lock.
type session struct {
	r         *Router
	id        uint64
	cid       string
	hello     server.Hello
	station   string
	resumable bool

	// tail retains the session stream from sample 0 as the client's raw
	// IQ frame bodies: failover replays it onto the replacement shard,
	// which resumes at offset 0, so backend ACKs never trim it. Past
	// RetainCap the oldest samples are trimmed (lossy degraded mode,
	// warned once per session on the first trim).
	tail       resume.Tail
	trimWarned bool

	up      *upstream
	ringVer uint64

	// bname mirrors the attached backend name for concurrent readers
	// (Router.SessionBackend).
	bname atomic.Value
}

// upstream is one live RESUME connection to a backend shard.
type upstream struct {
	*server.ResumeConn
	b *backend
}

func (s *session) backendName() string {
	if v, ok := s.bname.Load().(string); ok {
		return v
	}
	return ""
}

// retain appends one IQ frame body to the replay retention, trimming
// the oldest samples past RetainCap. body is owned by the session from
// here on (ReadFrame allocates a fresh slice per frame).
func (s *session) retain(body []byte) {
	s.tail.Append(body)
	s.r.m.RetainSamples.Add(int64(len(body) / resume.SampleBytes))
	if limit := s.r.cfg.RetainCap; limit > 0 {
		if trimmed := s.tail.TrimTo(s.tail.End() - limit); trimmed > 0 {
			s.r.m.RetainTrimmed.Add(trimmed)
			s.r.m.RetainSamples.Add(-trimmed)
			if !s.trimWarned {
				s.trimWarned = true
				s.r.warn("session retention trimmed (failover now lossy)",
					"cid", s.cid, "station", s.station, "samples", trimmed)
			}
		}
	}
}

// forward proxies one already-retained IQ body upstream. On a dead
// transport it reconnects via ensureUpstream, whose replay covers the
// body — the frame is never written twice to one upstream.
func (s *session) forward(body []byte) *server.ServerError {
	if s.up != nil && !s.up.Dead() {
		if _, err := s.up.Replay([][]byte{body}); err == nil {
			return nil
		}
	}
	return s.ensureUpstream()
}

// ensureUpstream makes the session's upstream live: on first use it
// routes the station onto its ring owner; after a transport death it
// fails the session over — pick the next available shard, RESUME,
// replay the retained stream — under the per-backend circuit breakers.
// A non-nil return is the session's client-facing fate: overload
// (retryable, parkable) when no shard can take it, or the backend's own
// terminal error propagated verbatim.
func (s *session) ensureUpstream() *server.ServerError {
	if s.up != nil && !s.up.Dead() {
		return nil
	}
	r := s.r
	if s.up != nil {
		if se := s.up.Verdict(); se != nil {
			s.teardownUpstream()
			return se
		}
		prev := s.up.b
		prev.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		s.teardownUpstream()
		r.m.Failovers.With(prev.spec.Name).Inc()
		r.warn("upstream died, failing over",
			"cid", s.cid, "station", s.station, "backend", prev.spec.Name)
	}
	maxAttempts := 2*r.backendCount() + 3
	var lastReason string
	for attempt := 0; ; attempt++ {
		if r.isClosed() {
			return &server.ServerError{Reason: "router draining"}
		}
		name, ok := r.currentRing().ownerSkipping(s.station, func(n string) bool {
			b := r.backendByName(n)
			return b != nil && b.available()
		})
		if !ok {
			return &server.ServerError{
				Code:       server.ErrCodeOverload,
				RetryAfter: r.cfg.ProbeInterval,
				Reason:     "no healthy backend for station",
			}
		}
		b := r.backendByName(name)
		if b == nil {
			continue // raced a removal
		}
		se, retry := s.connectUpstream(b)
		if se == nil {
			return nil
		}
		if !retry {
			return se
		}
		lastReason = se.Reason
		if attempt+1 >= maxAttempts {
			return &server.ServerError{
				Code:       server.ErrCodeOverload,
				RetryAfter: r.cfg.ProbeInterval,
				Reason:     "no backend accepted the session: " + lastReason,
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// connectUpstream dials one backend, runs the RESUME dialog and replays
// the retained stream from the backend's offset. retry reports whether
// the failure is transport-level (try another shard) as opposed to a
// verdict to propagate (an overload shed, a structured rejection).
func (s *session) connectUpstream(b *backend) (se *server.ServerError, retry bool) {
	r := s.r
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout)
	conn, err := r.dial(ctx, b.spec.Addr)
	cancel()
	var rc *server.ResumeConn
	var off int64
	if err == nil {
		if r.cfg.WrapUpstream != nil {
			conn = r.cfg.WrapUpstream(conn)
		}
		rc, off, err = server.OpenResume(conn, s.hello, r.cfg.DialTimeout, nil)
	}
	if errors.As(err, &se) {
		if se.Code == server.ErrCodeOverload {
			// The shard is shedding. Honor it — spilling the station onto
			// a shard that does not own it would split its stream.
			r.m.Sheds.With(b.spec.Name).Inc()
			r.warn("backend shed session",
				"cid", s.cid, "station", s.station, "backend", b.spec.Name,
				"retry_after", se.RetryAfter)
		}
		return se, false
	}
	if err != nil {
		b.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		return &server.ServerError{Reason: err.Error()}, true
	}
	b.noteSuccess()
	// The router's policy on the backend's offset: a shard ahead of the
	// retention has nothing to replay, and a gap (the retention cap
	// trimmed samples this shard needs) replays what survives. The
	// shard's sample indexing then shifts by the gap, so failover is no
	// longer byte-identical — counted on cluster_retain_trimmed at trim
	// time.
	from := off
	switch v, _ := s.tail.Reconcile(off); v {
	case resume.Gap:
		r.warn("replay truncated by retention cap",
			"cid", s.cid, "station", s.station, "missing", s.tail.Start()-off)
		from = s.tail.Start()
	case resume.FastForward:
		from = s.tail.End()
	}
	replayed, err := rc.Replay(s.tail.From(from))
	if err != nil {
		rc.Close()
		b.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		return &server.ServerError{Reason: fmt.Sprintf("replay: %v", err)}, true
	}
	if replayed > 0 {
		r.m.ReplayedSamples.Add(replayed)
		r.info("session replayed",
			"cid", s.cid, "station", s.station, "backend", b.spec.Name,
			"from", from, "samples", replayed)
	}
	s.up = &upstream{ResumeConn: rc, b: b}
	b.addSession()
	s.bname.Store(b.spec.Name)
	r.info("session routed",
		"cid", s.cid, "station", s.station, "backend", b.spec.Name,
		"resume_offset", off, "ingested", s.tail.End())
	return nil, false
}

// teardownUpstream closes the upstream transport, waits the reader out
// and releases the backend's session slot.
func (s *session) teardownUpstream() {
	if u := s.up; u != nil {
		s.up = nil
		u.Close()
		u.b.dropSession()
	}
}

// drainUpstream runs the CLOSE handshake so the shard decodes and
// publishes everything it buffered — failing over (replay, CLOSE again)
// if the shard dies mid-drain, bounded by CloseTimeout.
func (s *session) drainUpstream() error {
	r := s.r
	deadline := time.Now().Add(r.cfg.CloseTimeout)
	for {
		if se := s.ensureUpstream(); se != nil {
			// A retryable fleet-wide outage (a breaker flap, every shard
			// mid-probe) must not abort the drain: the samples are
			// retained, so keep trying until the drain deadline.
			if se.Temporary() && time.Now().Before(deadline) {
				wait := se.RetryAfter
				if wait <= 0 {
					wait = 50 * time.Millisecond
				}
				if wait > time.Second {
					wait = time.Second
				}
				time.Sleep(wait)
				continue
			}
			return se
		}
		err := s.up.Drain(deadline)
		s.teardownUpstream()
		var se *server.ServerError
		switch {
		case err == nil:
			return nil
		case errors.Is(err, server.ErrDrainTimeout):
			return fmt.Errorf("drain timed out after %v", r.cfg.CloseTimeout)
		case errors.As(err, &se) && !se.Temporary():
			return se
		}
		// Transport died before the OK: fail over and drain again (the
		// replay reconstructs the stream on the replacement shard).
		if !time.Now().Before(deadline) {
			return fmt.Errorf("drain timed out after %v", r.cfg.CloseTimeout)
		}
	}
}

// maybeMigrate moves the session onto its new ring owner after a
// membership change. The old upstream is abandoned, not CLOSEd: a CLOSE
// mid-stream would make the old shard decode a truncated trailing
// packet and emit a record the fault-free run never produces. Abandoned,
// the old shard parks the (resumable) upstream session and drains it
// when its park window expires — by then the replacement has republished
// those records and the dedup watermark suppresses the stragglers.
func (s *session) maybeMigrate() {
	if s.up == nil || s.up.Dead() {
		return
	}
	cur := s.up.b
	owner := s.r.currentRing().owner(s.station)
	if owner == "" || owner == cur.spec.Name {
		return
	}
	nb := s.r.backendByName(owner)
	if nb == nil || !nb.available() {
		return
	}
	s.teardownUpstream()
	s.r.m.Migrations.Inc()
	s.r.info("session migrating",
		"cid", s.cid, "station", s.station, "from", cur.spec.Name, "to", owner)
}

// ---- Router-side session lifecycle -------------------------------------

// reject answers a handshake with a structured ERROR frame.
func (r *Router) reject(conn net.Conn, se *server.ServerError) {
	r.m.Rejected.Inc()
	_ = server.WriteError(conn, se)
	conn.Close()
}

// admitSession creates and tracks a fresh routed session. The router
// enforces one routed session per station — the dedup watermark is
// per-station state, so two concurrent streams for one station would
// corrupt each other's output (a documented cluster-mode constraint).
func (r *Router) admitSession(h server.Hello, resumable bool) (*session, *server.ServerError) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, &server.ServerError{Reason: "router draining"}
	}
	if r.byStation[h.Station] != nil {
		r.mu.Unlock()
		return nil, &server.ServerError{
			Reason: fmt.Sprintf("station %q already has a routed session", h.Station)}
	}
	if r.cfg.MaxSessions > 0 && len(r.byStation) >= r.cfg.MaxSessions {
		limit := r.cfg.MaxSessions
		r.mu.Unlock()
		return nil, &server.ServerError{
			Code:       server.ErrCodeOverload,
			RetryAfter: r.retryAfter(),
			Reason:     fmt.Sprintf("router session limit reached (%d)", limit),
		}
	}
	r.nextID++
	s := &session{
		r:         r,
		id:        r.nextID,
		cid:       server.MintCID(),
		hello:     h,
		station:   h.Station,
		resumable: resumable,
	}
	s.ringVer = r.ringVersion.Load()
	r.byStation[h.Station] = s
	r.setActiveLocked()
	r.mu.Unlock()
	r.m.SessionsTotal.Inc()
	r.resetWatermark(s)
	if resumable {
		r.parks.Attach(h.Station)
	}
	return s, nil
}

// handleConn terminates one client connection: v2 handshake, then the
// proxy frame loop.
func (r *Router) handleConn(conn net.Conn) {
	if r.cfg.WrapConn != nil {
		conn = r.cfg.WrapConn(conn)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	h, resumable, err := server.ReadHandshake(conn, br, r.cfg.IdleTimeout)
	if err != nil {
		r.reject(conn, &server.ServerError{Reason: err.Error()})
		return
	}

	if resumable {
		if s, ok := r.parks.Reclaim(h.Station, func(p *session) bool { return p.hello == h }); ok {
			r.serveSession(s, conn, br, true)
			return
		}
	}
	if err := h.Config().Validate(); err != nil {
		r.reject(conn, &server.ServerError{Reason: err.Error()})
		return
	}
	s, se := r.admitSession(h, resumable)
	if se != nil {
		r.warn("session rejected", "station", h.Station,
			"remote", conn.RemoteAddr().String(), "reason", se.Reason)
		r.reject(conn, se)
		return
	}
	// Route upstream before the OK so a backend's handshake verdict (an
	// overload shed in particular) propagates into the client handshake.
	if se := s.ensureUpstream(); se != nil {
		r.warn("session rejected by fleet", "cid", s.cid, "station", h.Station,
			"reason", se.Reason)
		r.reject(conn, se)
		r.leave(s, conn, false)
		return
	}
	r.serveSession(s, conn, br, false)
}

// serveSession answers the handshake and runs the proxy frame loop for
// an admitted (or, when resumed, reclaimed) session, then tears it
// down: parked when a resumable connection dies abnormally (or its
// fleet verdict is retryable), drained otherwise.
func (r *Router) serveSession(s *session, conn net.Conn, br *bufio.Reader, resumed bool) {
	idle := r.cfg.IdleTimeout
	// A resumable session whose OK cannot be written parks.
	park := s.resumable
	defer func() {
		if v := recover(); v != nil {
			r.warn("cluster session handler panic",
				"cid", s.cid, "station", s.station, "panic", fmt.Sprint(v))
			park = false
		}
		r.leave(s, conn, park)
	}()
	if resumed {
		r.refreshActive()
		r.m.ResumesTotal.Inc() // before the OK, so a client that saw it sees the count
	}
	if err := server.WriteAccept(conn, s.resumable, s.tail.End()); err != nil {
		return
	}
	park = false
	if resumed {
		r.info("session resumed", "cid", s.cid, "station", s.station,
			"remote", conn.RemoteAddr().String(), "offset", s.tail.End())
	} else {
		r.info("session accepted",
			"cid", s.cid, "station", s.station, "remote", conn.RemoteAddr().String(),
			"backend", s.backendName(), "resumable", s.resumable)
	}
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		typ, body, err := server.ReadFrame(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				r.info("session idle timeout", "cid", s.cid, "station", s.station)
			} else {
				r.info("session disconnected",
					"cid", s.cid, "station", s.station, "err", err.Error())
				park = s.resumable
			}
			return
		}
		switch typ {
		case server.FrameIQ:
			if len(body) == 0 || len(body)%8 != 0 {
				_ = server.WriteError(conn, &server.ServerError{
					Reason: fmt.Sprintf("IQ body length %d not a positive multiple of 8", len(body))})
				return
			}
			if v := r.ringVersion.Load(); v != s.ringVer {
				s.ringVer = v
				s.maybeMigrate()
			}
			s.retain(body)
			if se := s.forward(body); se != nil {
				_ = server.WriteError(conn, se)
				// A retryable fleet verdict (overload, no shard available)
				// parks the session: retention survives, so the client's
				// RESUME continues with nothing lost. A terminal backend
				// error does not — replay would reproduce it.
				park = s.resumable && se.Temporary()
				return
			}
			if s.resumable {
				if err := server.WriteFrame(conn, server.FrameAck, server.EncodeOffset(s.tail.End())); err != nil {
					r.info("session ack write failed",
						"cid", s.cid, "station", s.station, "err", err.Error())
					park = true
					return
				}
			}
		case server.FrameClose:
			_ = conn.SetReadDeadline(time.Time{})
			if err := s.drainUpstream(); err != nil {
				// Never OK a failed drain — the client would believe its
				// records were published. A retryable failure parks the
				// session (retention intact) so the client's reconnect
				// resumes and re-runs the CLOSE once the fleet recovers.
				r.warn("session drain failed",
					"cid", s.cid, "station", s.station, "err", err.Error())
				var se *server.ServerError
				if !errors.As(err, &se) {
					se = &server.ServerError{Reason: err.Error()}
				}
				_ = server.WriteError(conn, se)
				park = s.resumable && se.Temporary()
				return
			}
			_ = server.WriteFrame(conn, server.FrameOK, nil)
			r.info("session closed", "cid", s.cid, "station", s.station)
			return
		default:
			_ = server.WriteError(conn, &server.ServerError{
				Reason: fmt.Sprintf("unexpected frame type 0x%02x", typ)})
			return
		}
	}
}

// setActiveLocked refreshes cluster_sessions_active: the routed
// sessions not parked. Caller holds r.mu.
func (r *Router) setActiveLocked() {
	r.m.SessionsActive.Set(int64(len(r.byStation) - r.parks.Len()))
}

// refreshActive is setActiveLocked after a park or reclaim.
func (r *Router) refreshActive() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setActiveLocked()
}

// leave ends a session's client connection: with park set a resumable
// session parks for the resume window, its upstream connection still
// live so a prompt RESUME continues with zero replay; anything else
// drains the upstream gracefully (so the shard publishes its buffered
// packets) and finishes.
func (r *Router) leave(s *session, conn net.Conn, park bool) {
	parked := s.resumable && r.parks.Leave(s.station, s, park)
	conn.Close()
	if !parked {
		r.drainAndFinish(s, false)
		return
	}
	r.refreshActive()
	r.info("session parked",
		"cid", s.cid, "station", s.station, "resume_window", r.cfg.ParkTimeout)
}

// drainAndFinish drains a detached session's upstream and finishes it:
// the park table's release for a session whose resume window elapsed
// (expired) or that Shutdown took, and leave's for one that did not
// park.
func (r *Router) drainAndFinish(s *session, expired bool) {
	if expired {
		r.info("session resume window expired", "cid", s.cid, "station", s.station)
	}
	if s.up != nil {
		if err := s.drainUpstream(); err != nil {
			r.warn("session final drain failed",
				"cid", s.cid, "station", s.station, "expired", expired, "err", err.Error())
		}
	}
	r.finishSession(s)
}

// finishSession unlinks a session and releases its retention. The
// upstream, if still attached, is abandoned abruptly — callers drain
// first when the shard should publish.
func (r *Router) finishSession(s *session) {
	if s.up != nil {
		s.teardownUpstream()
	}
	r.mu.Lock()
	if r.byStation[s.station] == s {
		delete(r.byStation, s.station)
	}
	r.setActiveLocked()
	r.mu.Unlock()
	r.m.RetainSamples.Add(-s.tail.Len())
	s.tail = resume.Tail{}
	r.retireWatermark(s)
}

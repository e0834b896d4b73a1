package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"cic"
	"cic/internal/obs"
	"cic/internal/resume"
)

// Defaults for Config zero values.
const (
	DefaultMaxSessions  = 64
	DefaultMemoryBudget = int64(1) << 30 // 1 GiB of session footprint
	DefaultIdleTimeout  = 60 * time.Second
	// DefaultParkTimeout is how long a resumable session survives its
	// connection: a client that reconnects with RESUME within the window
	// continues where it left off; past it the session drains.
	DefaultParkTimeout = 15 * time.Second
	// DefaultDecodeTimeout bounds one IQ frame's decode admission (see
	// SessionOptions.DecodeTimeout).
	DefaultDecodeTimeout = 30 * time.Second
	// DefaultRetryAfter is the retry hint carried in overload ERROR
	// frames.
	DefaultRetryAfter = time.Second
)

// DefaultWorkers is the per-session decode pool default: sessions run
// concurrently, so each gets a small pool rather than GOMAXPROCS.
func DefaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

// Config parameterises a Server. The zero value is usable: every field
// falls back to the package defaults and the sink defaults to a fanout
// with no outputs (TCP subscribers can still attach).
type Config struct {
	// MaxSessions caps concurrent ingestion sessions, parked ones
	// included (DefaultMaxSessions when 0; negative means unlimited).
	MaxSessions int
	// MemoryBudget caps the summed EstimateMemoryBytes of admitted
	// sessions (DefaultMemoryBudget when 0; negative means unlimited).
	MemoryBudget int64
	// IdleTimeout closes a session that sends no frame for this long
	// (DefaultIdleTimeout when 0; negative disables the timeout).
	IdleTimeout time.Duration
	// ParkTimeout is the resume window: how long a resumable session
	// stays parked after its connection drops before it is drained
	// (DefaultParkTimeout when 0; negative disables parking, so even
	// RESUME sessions end with their connection).
	ParkTimeout time.Duration
	// DecodeTimeout bounds one IQ frame's decode admission; a session
	// that cannot accept a frame within it is failed rather than left
	// wedging its handler (DefaultDecodeTimeout when 0; negative
	// disables the deadline).
	DecodeTimeout time.Duration
	// RetryAfter is the retry hint carried in overload ERROR frames
	// (DefaultRetryAfter when 0; negative means no hint).
	RetryAfter time.Duration
	// Workers is the per-session decode pool size (DefaultWorkers when
	// 0).
	Workers int
	// Metrics receives both the daemon's server_* metrics and every
	// session gateway's decode metrics; mount it on cic.DebugHandler.
	// Nil disables instrumentation.
	Metrics *cic.Metrics
	// Sink receives decoded-packet records (a silent fanout when nil).
	Sink *Fanout
	// WrapConn, when set, wraps every accepted ingestion connection
	// before the handshake — the hook behind the daemon's -fault-spec
	// flag (internal/fault.WrapConn) and usable for any transport
	// middleware. Subscriber connections are not wrapped.
	WrapConn func(net.Conn) net.Conn
	// GatewayOptions are appended to every session Gateway's options —
	// a development hook (e.g. cic.WithDecodeInterceptor for chaos
	// tests); nil for production use.
	GatewayOptions []cic.Option
	// Log receives structured session-lifecycle events (accept, resume,
	// park, shed, panic post-mortems), each stamped with the session's
	// correlation id. Nil is silent.
	Log *slog.Logger
	// Flight, when set, records session transitions and decode incidents
	// into a lock-free ring for post-mortems: mount it at /debug/flight
	// via cic.DebugHandler, and on a handler panic or overload shed the
	// offending trail is also snapshotted into the log.
	Flight *obs.FlightRecorder
	// MaxStationSeries caps each per-station labeled metric family's
	// live label sets (obs.DefaultMaxSeries when 0): beyond the cap the
	// least-recently-active station's series is evicted and counted on
	// obs_labels_evicted, so unbounded station churn cannot OOM the
	// registry.
	MaxStationSeries int
}

// Server accepts ingestion connections, runs one Session per connection
// with admission control (session count + memory budget), and publishes
// decoded packets through the sink. Create with New, feed it listeners
// via Serve/ServePub, stop it with Shutdown.
//
// Resilience: a session opened with RESUME survives its connection —
// on abnormal disconnect it is parked for Config.ParkTimeout and a
// reconnecting client reclaims it, replaying from the acknowledged
// sample offset. A decode-worker panic or decode deadline fails only
// the offending session; the daemon keeps serving.
type Server struct {
	cfg  Config
	m    *serverMetrics
	sink *Fanout
	log  *slog.Logger // Config.Log (nil = silent)

	parks *resume.Table[*slot]

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	admitted int   // sessions holding an admission reservation, parked included
	memInUse int64 // their summed reservations
	attached int   // sessions attached to a connection
	lns      Listeners
}

// slot is an admitted session with its admission reservation and
// handshake: what the park table holds between connections, its
// gateway still live, until a RESUME reclaims it or the park timer
// drains it.
type slot struct {
	sess  *Session
	est   int64
	hello Hello
}

// New builds a Server from cfg (see Config for zero-value defaults).
func New(cfg Config) *Server {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = DefaultMemoryBudget
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.ParkTimeout == 0 {
		cfg.ParkTimeout = DefaultParkTimeout
	}
	if cfg.DecodeTimeout == 0 {
		cfg.DecodeTimeout = DefaultDecodeTimeout
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers()
	}
	if cfg.Sink == nil {
		cfg.Sink = NewFanout()
	}
	s := &Server{
		cfg:  cfg,
		m:    newServerMetrics(cfg.Metrics, cfg.MaxStationSeries),
		sink: cfg.Sink,
		log:  cfg.Log,
	}
	s.parks = resume.NewTable(cfg.ParkTimeout, s.m.SessionsParked, s.finish)
	s.sink.setMetrics(s.m)
	return s
}

// info/warn/logError emit structured events (silent without a logger).
func (s *Server) info(msg string, args ...any) {
	if s.log != nil {
		s.log.Info(msg, args...)
	}
}

func (s *Server) warn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}

func (s *Server) logError(msg string, args ...any) {
	if s.log != nil {
		s.log.Error(msg, args...)
	}
}

// sessAttrs is the common identity prefix for session-scoped log events.
func sessAttrs(sess *Session) []any {
	return []any{"cid", sess.CID, "station", sess.Station, "session", sess.ID}
}

// dumpFlight snapshots a session's flight-recorder trail into the log —
// the automatic post-mortem on handler panics and overload sheds.
func (s *Server) dumpFlight(msg, cid string, args ...any) {
	if s.log == nil || s.cfg.Flight == nil {
		return
	}
	trail := s.cfg.Flight.SnapshotCID(cid)
	args = append(args, "cid", cid, "trail_events", len(trail), "trail", trail)
	s.log.Error(msg, args...)
}

// Sink returns the server's fanout (for attaching subscribers directly).
func (s *Server) Sink() *Fanout { return s.sink }

// Serve accepts ingestion connections on ln until Shutdown closes it
// (which makes Serve return nil) or Accept fails.
func (s *Server) Serve(ln net.Listener) error { return s.lns.Serve(ln, s.handleConn) }

// ServePub accepts subscriber connections on ln and attaches each to
// the sink; every record published after attachment is streamed to the
// subscriber as NDJSON. Returns nil once Shutdown closes ln.
func (s *Server) ServePub(ln net.Listener) error { return s.lns.ServePub(ln, s.sink) }

// retryAfter is the hint for overload rejections (0 when disabled).
func (s *Server) retryAfter() time.Duration {
	if s.cfg.RetryAfter < 0 {
		return 0
	}
	return s.cfg.RetryAfter
}

// admit applies the session-count and memory-budget limits (parked
// sessions count against both — their gateways are still live),
// reserving the estimate on success. Callers release via release().
// A *ServerError return carries the overload code and retry hint for
// the rejection ERROR frame.
func (s *Server) admit(est int64) *ServerError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &ServerError{Code: ErrCodeGeneric, Reason: "server draining"}
	}
	if s.cfg.MaxSessions > 0 && s.admitted >= s.cfg.MaxSessions {
		return &ServerError{
			Code:       ErrCodeOverload,
			RetryAfter: s.retryAfter(),
			Reason:     fmt.Sprintf("session limit reached (%d active)", s.admitted),
		}
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse+est > s.cfg.MemoryBudget {
		return &ServerError{
			Code:       ErrCodeOverload,
			RetryAfter: s.retryAfter(),
			Reason: fmt.Sprintf("memory budget exceeded (%d in use + %d requested > %d)",
				s.memInUse, est, s.cfg.MemoryBudget),
		}
	}
	s.admitted++
	s.memInUse += est
	s.m.MemoryInUse.Set(s.memInUse)
	return nil
}

// release returns one admission reservation.
func (s *Server) release(est int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitted--
	s.memInUse -= est
	s.m.MemoryInUse.Set(s.memInUse)
}

// reject answers a handshake with a structured ERROR frame and closes
// the connection.
func (s *Server) reject(conn net.Conn, e *ServerError) {
	s.m.SessionsRejected.Inc()
	if e.Code == ErrCodeOverload {
		s.m.OverloadRejected.Inc()
	}
	_ = WriteError(conn, e)
	conn.Close()
}

// handleConn runs one ingestion connection end to end: handshake
// (HELLO or RESUME), admission or reclaim, then the frame loop.
func (s *Server) handleConn(conn net.Conn) {
	if s.cfg.WrapConn != nil {
		conn = s.cfg.WrapConn(conn)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	// Handshake. The HELLO must arrive within the idle timeout.
	h, resumable, err := ReadHandshake(conn, br, s.cfg.IdleTimeout)
	if err != nil {
		s.m.HelloErrors.Inc()
		s.reject(conn, &ServerError{Reason: err.Error()})
		return
	}

	// RESUME first tries to reclaim a parked session for the station;
	// if none matches it falls through to a fresh resumable session
	// starting at offset 0.
	if resumable {
		if p, ok := s.parks.Reclaim(h.Station, func(p *slot) bool { return p.hello == h }); ok {
			s.serveSession(p, conn, br, true)
			return
		}
	}

	cfg := h.Config()
	if err := cfg.Validate(); err != nil {
		s.m.HelloErrors.Inc()
		s.reject(conn, &ServerError{Reason: err.Error()})
		return
	}
	est, err := EstimateMemoryBytes(cfg, s.cfg.Workers)
	if err != nil {
		s.m.HelloErrors.Inc()
		s.reject(conn, &ServerError{Reason: err.Error()})
		return
	}
	if aerr := s.admit(est); aerr != nil {
		if aerr.Code == ErrCodeOverload {
			s.m.StationSheds.With(h.Station).Inc()
			cid := MintCID()
			s.cfg.Flight.Scope(cid, h.Station).RecordErr("shed",
				"admission rejected under overload", aerr.Reason)
			s.dumpFlight("session shed", cid,
				"station", h.Station, "remote", conn.RemoteAddr().String(),
				"reason", aerr.Reason)
		}
		s.warn("session rejected", "station", h.Station,
			"remote", conn.RemoteAddr().String(), "reason", aerr.Reason)
		s.reject(conn, aerr)
		return
	}
	sess, err := s.newSession(h, resumable)
	if err != nil {
		s.release(est)
		s.reject(conn, &ServerError{Reason: err.Error()})
		return
	}
	if resumable {
		s.parks.Attach(h.Station)
	}
	s.serveSession(&slot{sess: sess, est: est, hello: h}, conn, br, false)
}

// serveSession answers the handshake and runs the frame loop for an
// admitted (or, when resumed, reclaimed) session, then tears it down:
// parking it when a resumable connection dies abnormally (so RESUME can
// reclaim it), draining it otherwise. A panic anywhere in the loop is
// contained to this session.
func (s *Server) serveSession(p *slot, conn net.Conn, br *bufio.Reader, resumed bool) {
	sess, h := p.sess, p.hello
	idle := s.cfg.IdleTimeout
	// A reclaimed session whose OK cannot be written parks again.
	park := resumed
	defer func() {
		if v := recover(); v != nil {
			s.m.PanicsRecovered.Inc()
			sess.flight.RecordErr("handler_panic", "connection handler", fmt.Sprint(v))
			s.logError("session handler panic", append(sessAttrs(sess), "panic", fmt.Sprint(v))...)
			s.dumpFlight("session post-mortem", sess.CID, "trigger", "handler panic")
			park = false
		} else if ferr := sess.Failed(); ferr != nil {
			// The session died of a decode incident (worker panic, decode
			// deadline): snapshot its flight trail while the ring still
			// holds it.
			s.dumpFlight("session post-mortem", sess.CID, "trigger", ferr.Error())
		}
		s.leave(p, conn, park)
		s.attach(-1)
	}()
	s.attach(1)
	off := sess.Ingested()
	if resumed {
		// Counted before the OK, so a client that saw it sees the count.
		s.m.ResumesTotal.Inc()
		s.m.StationResumes.With(h.Station).Inc()
	}
	if err := WriteAccept(conn, sess.Resumable, off); err != nil {
		return
	}
	park = false
	if resumed {
		sess.flight.Record("session_resume", fmt.Sprintf("reclaimed at sample offset %d", off))
		s.info("session resumed", append(sessAttrs(sess),
			"remote", conn.RemoteAddr().String(), "offset", off)...)
	} else {
		sess.flight.Record("session_accept", fmt.Sprintf("sf%d from %s", h.SF, conn.RemoteAddr()))
		s.info("session accepted", append(sessAttrs(sess),
			"remote", conn.RemoteAddr().String(), "sf", h.SF,
			"resumable", sess.Resumable, "reserved_bytes", p.est)...)
	}

	var iqBuf []complex128
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		typ, body, err := ReadFrame(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.m.IdleTimeouts.Inc()
				sess.flight.Record("idle_timeout", "")
				s.info("session idle timeout", sessAttrs(sess)...)
			} else {
				sess.flight.RecordErr("disconnect", "", err.Error())
				s.info("session disconnected", append(sessAttrs(sess), "err", err.Error())...)
				// Only an abnormal disconnect parks; an idle station has
				// stopped on purpose and re-handshakes when it returns.
				park = sess.Resumable
			}
			return
		}
		switch typ {
		case FrameIQ:
			iqBuf, err = DecodeIQBody(iqBuf[:0], body)
			if err != nil {
				s.warn("bad IQ frame", append(sessAttrs(sess), "err", err.Error())...)
			} else {
				err = sess.Write(iqBuf)
			}
			if err != nil {
				// ErrGatewayClosed means the session was drained under us;
				// a failed session carries its fault. Either way the session
				// is over — a failed session is never parked.
				_ = WriteError(conn, &ServerError{Reason: err.Error()})
				return
			}
			s.m.FramesIngested.Inc()
			s.m.BytesIngested.Add(int64(len(body)))
			sess.stFrames.Inc()
			sess.stBytes.Add(int64(len(body)))
			if sess.Resumable {
				if err := WriteFrame(conn, FrameAck, EncodeOffset(sess.Ingested())); err != nil {
					s.info("session ack write failed", append(sessAttrs(sess), "err", err.Error())...)
					park = true
					return
				}
				s.m.ResumeAcks.Inc()
			}
		case FrameClose:
			// Flush, publish everything, then acknowledge so the client
			// knows its packets are out.
			_ = conn.SetReadDeadline(time.Time{})
			if err := sess.Drain(); err != nil {
				s.warn("session drain failed", append(sessAttrs(sess), "err", err.Error())...)
			}
			_ = WriteFrame(conn, FrameOK, nil)
			sess.flight.Record("session_close", "clean CLOSE")
			s.info("session closed", sessAttrs(sess)...)
			return
		default:
			s.warn("unexpected frame type", append(sessAttrs(sess), "type", fmt.Sprintf("0x%02x", typ))...)
			_ = WriteError(conn, &ServerError{Reason: fmt.Sprintf("unexpected frame type 0x%02x", typ)})
			return
		}
	}
}

// newSession builds an admitted session.
func (s *Server) newSession(h Hello, resumable bool) (*Session, error) {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	decodeTimeout := s.cfg.DecodeTimeout
	if decodeTimeout < 0 {
		decodeTimeout = 0
	}
	sess, err := NewSession(id, h, SessionOptions{
		Workers:        s.cfg.Workers,
		Metrics:        s.cfg.Metrics,
		DecodeTimeout:  decodeTimeout,
		Resumable:      resumable,
		GatewayOptions: s.cfg.GatewayOptions,
		Log:            s.log,
		Flight:         s.cfg.Flight,
	}, s.sink)
	if err != nil {
		return nil, err
	}
	sess.setMetrics(s.m)
	s.m.SessionsTotal.Inc()
	s.m.StationSessions.With(h.Station).Inc()
	return sess, nil
}

// attach counts a session onto (+1) or off (-1) a connection.
func (s *Server) attach(delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attached += delta
	s.m.SessionsActive.Set(int64(s.attached))
}

// leave ends a session's connection: with park set a healthy resumable
// session parks for the resume window; anything else finishes.
func (s *Server) leave(p *slot, conn net.Conn, park bool) {
	sess := p.sess
	if sess.Resumable && s.parks.Leave(sess.Station, p, park && sess.Failed() == nil) {
		sess.flight.Record("session_park", fmt.Sprintf("resume window %v", s.cfg.ParkTimeout))
		s.info("session parked", append(sessAttrs(sess), "resume_window", s.cfg.ParkTimeout)...)
	} else {
		s.finish(p, false)
	}
	conn.Close()
}

// finish drains a session (idempotent — publishing any still-buffered
// packets) and returns its reservation: leave's end for a session that
// does not park, and the park table's release for one whose resume
// window elapsed (expired) or that Shutdown took.
func (s *Server) finish(p *slot, expired bool) {
	if expired {
		s.m.ResumesExpired.Inc()
		p.sess.flight.Record("park_expire", "resume window elapsed, draining")
		s.info("session resume window expired", sessAttrs(p.sess)...)
	}
	if err := p.sess.Drain(); err != nil {
		s.warn("session drain failed", append(sessAttrs(p.sess), "err", err.Error())...)
	}
	s.release(p.est)
}

// Shutdown drains the daemon gracefully: stop accepting, drain the
// parked sessions, then close every ingestion connection so its handler
// drains its own session (publishing all fully-buffered packets), and
// wait for the handlers — bounded by ctx. The sink is left open; close
// it after Shutdown so late records are not lost.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Closing the park table first means no session parks mid-shutdown.
	return s.lns.Shutdown(ctx, s.parks.Close)
}

// Ready reports whether admission control would currently accept a new
// session: nil while the daemon is accepting, an error describing the
// overload (session limit, memory budget) or drain otherwise — the
// /readyz probe's truth source, so load balancers stop routing to a
// shedding instance.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("draining")
	}
	if s.cfg.MaxSessions > 0 && s.admitted >= s.cfg.MaxSessions {
		return fmt.Errorf("shedding: session limit reached (%d/%d)", s.admitted, s.cfg.MaxSessions)
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse >= s.cfg.MemoryBudget {
		return fmt.Errorf("shedding: memory budget exhausted (%d/%d bytes)",
			s.memInUse, s.cfg.MemoryBudget)
	}
	return nil
}

// SessionCount reports the number of live ingestion sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached
}

// ParkedCount reports the number of parked (resumable, disconnected)
// sessions.
func (s *Server) ParkedCount() int { return s.parks.Len() }

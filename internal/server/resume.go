package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"cic/internal/resume"
)

// ErrResumeGap: the server's resume offset fell behind the client's
// retained tail, so a gap-free resume is impossible (see resume.ErrResumeGap).
var ErrResumeGap = resume.ErrResumeGap

// ErrDrainTimeout reports that a CLOSE drew no drain acknowledgement
// before the deadline.
var ErrDrainTimeout = errors.New("server: no drain acknowledgement before the deadline")

// ReadHandshake reads a session's opening frame, bounded by idle when
// positive: a HELLO, or a RESUME opening a resumable session.
func ReadHandshake(conn net.Conn, br *bufio.Reader, idle time.Duration) (h Hello, resumable bool, err error) {
	if idle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
	}
	typ, body, err := ReadFrame(br)
	if err == nil && typ != FrameHello && typ != FrameResume {
		err = fmt.Errorf("first frame type 0x%02x, want HELLO or RESUME", typ)
	}
	if err != nil {
		return Hello{}, false, fmt.Errorf("bad handshake: %w", err)
	}
	h, err = ParseHello(body)
	return h, typ == FrameResume, err
}

// WriteAccept answers an accepted handshake: the empty OK of protocol
// v1 for a HELLO, the receiver's ingested-sample offset for a RESUME
// (0 for a fresh session) so the sender knows where replay begins.
func WriteAccept(w io.Writer, resumable bool, off int64) error {
	if !resumable {
		return WriteFrame(w, FrameOK, nil)
	}
	return WriteFrame(w, FrameOK, EncodeOffset(off))
}

// WriteError sends se as the session's terminal ERROR frame.
func WriteError(w io.Writer, se *ServerError) error {
	return WriteFrame(w, FrameError, EncodeErrorBody(se.Code, se.RetryAfter, se.Reason))
}

// ResumeConn is the sending side of one connection of a resumable
// stream, shared by ReconnectingClient and the cluster router's
// upstreams: the RESUME handshake and its offset reply, replay of
// retained frame bodies, a reader consuming the receiver's ACK/OK/ERROR
// frames, and the CLOSE→OK drain. What to replay after the offset
// reply, and when to give up, is the caller's policy. One goroutine
// drives the write side.
type ResumeConn struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	onAck func(int64)

	dead atomic.Bool   // the reader exited or a write failed
	done chan struct{} // closed when the reader exits
	okCh chan struct{} // one token per OK frame (the CLOSE drain ack)
	err  error         // the reader's terminal error; read only after done
}

// OpenResume runs the RESUME handshake for h on conn, bounded by
// timeout when positive, and returns the receiver's resume offset. On
// success the reader is running and calls onAck (when non-nil) with
// every ACK offset; on failure conn is closed. A rejection arrives as a
// *ServerError in the error chain; any other error is a transport
// failure.
func OpenResume(conn net.Conn, h Hello, timeout time.Duration, onAck func(int64)) (*ResumeConn, int64, error) {
	c := &ResumeConn{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 32<<10),
		bw:    bufio.NewWriterSize(conn, 64<<10),
		onAck: onAck,
		done:  make(chan struct{}),
		okCh:  make(chan struct{}, 1),
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	reply, err := handshake(c.bw, c.br, FrameResume, h)
	var off int64
	if err == nil {
		off, err = ParseOffset(reply)
	}
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	_ = conn.SetDeadline(time.Time{})
	go c.readLoop()
	return c, off, nil
}

// readLoop consumes receiver frames until the connection dies: ACKs go
// to onAck, OK signals the CLOSE drain acknowledgement, and an ERROR
// (the session's terminal verdict) or a transport error ends the loop.
func (c *ResumeConn) readLoop() {
	defer func() {
		c.dead.Store(true)
		close(c.done)
	}()
	for {
		typ, body, err := ReadFrame(c.br)
		if err != nil {
			c.err = err
			return
		}
		switch typ {
		case FrameAck:
			off, err := ParseOffset(body)
			if err != nil {
				c.err = err
				return
			}
			if c.onAck != nil {
				c.onAck(off)
			}
		case FrameOK:
			select {
			case c.okCh <- struct{}{}:
			default:
			}
		case FrameError:
			c.err = parseServerError(body)
			return
		default:
			c.err = fmt.Errorf("server: unexpected frame 0x%02x on a resumable stream", typ)
			return
		}
	}
}

// Replay writes each body as one IQ frame, flushes, and returns the
// samples written. A failure marks the connection dead.
func (c *ResumeConn) Replay(bodies [][]byte) (int64, error) {
	var n int64
	for _, b := range bodies {
		if err := WriteFrame(c.bw, FrameIQ, b); err != nil {
			c.dead.Store(true)
			return n, err
		}
		n += int64(len(b) / resume.SampleBytes)
	}
	if err := c.bw.Flush(); err != nil {
		c.dead.Store(true)
		return n, err
	}
	return n, nil
}

// Drain ends the stream on this connection: CLOSE, then wait until
// deadline for the OK that means every sample reached a published
// state. It returns nil on OK, ErrDrainTimeout past the deadline, and
// otherwise why the connection died first (a *ServerError when the
// receiver sent ERROR).
func (c *ResumeConn) Drain(deadline time.Time) error {
	err := WriteFrame(c.bw, FrameClose, nil)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.dead.Store(true)
		return err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-c.okCh:
		return nil
	case <-c.done:
		// The receiver may have sent the OK and then closed; prefer it.
		select {
		case <-c.okCh:
			return nil
		default:
			return c.err
		}
	case <-timer.C:
		return ErrDrainTimeout
	}
}

// Dead reports whether the connection is unusable.
func (c *ResumeConn) Dead() bool { return c.dead.Load() }

// Verdict returns the receiver's terminal ERROR once the reader has
// exited on one, else nil.
func (c *ResumeConn) Verdict() *ServerError {
	var se *ServerError
	select {
	case <-c.done:
		errors.As(c.err, &se)
	default:
	}
	return se
}

// Close tears the transport down and waits for the reader to exit.
func (c *ResumeConn) Close() {
	c.conn.Close()
	<-c.done
}

package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"cic"
)

// DefaultDialTimeout bounds Dial's TCP connect: a daemon that is down
// fails fast instead of hanging the front end on SYN retries.
const DefaultDialTimeout = 10 * time.Second

// Client is the sending side of the ingestion protocol: an SDR front
// end (or cmd/cic-feed) dials the daemon, sends one HELLO, streams IQ
// frames, and Closes — which waits for the server's drain
// acknowledgement, so a returned nil means every fully-buffered packet
// of the session has been published.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	buf  []byte // reusable IQ frame body
}

// Dial connects to a cic-gatewayd ingestion address, bounded by
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout is Dial with an explicit connect timeout (≤ 0 means no
// bound).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return DialContext(ctx, addr)
}

// DialContext is Dial bounded by ctx (cancellation and deadline apply
// to the TCP connect only, not the session).
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful for tests and
// custom transports).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, 4<<10),
	}
}

// Hello performs the handshake and waits for the server's verdict. On
// an ERROR reply the returned error carries the server's reason.
func (c *Client) Hello(station string, cfg cic.Config) error {
	_, err := handshake(c.bw, c.br, FrameHello, HelloFor(station, cfg))
	return err
}

// Resume performs the resumable handshake (protocol v2): the server
// either reclaims a parked session for the station or opens a fresh
// resumable one, and replies with the sample offset it has already
// ingested — the client must replay its stream from that offset. On a
// resumable session the server acknowledges every IQ frame with an ACK
// carrying the updated offset (see ReconnectingClient, which consumes
// them; a synchronous caller may ignore them — awaitReply skips ACKs).
func (c *Client) Resume(station string, cfg cic.Config) (int64, error) {
	reply, err := handshake(c.bw, c.br, FrameResume, HelloFor(station, cfg))
	if err != nil {
		return 0, err
	}
	return ParseOffset(reply)
}

// handshake sends the opening HELLO or RESUME frame for h and returns
// the body of the server's OK reply.
func handshake(bw *bufio.Writer, br *bufio.Reader, typ byte, h Hello) ([]byte, error) {
	body, err := EncodeHello(h)
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(bw, typ, body); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	stage := "hello"
	if typ == FrameResume {
		stage = "resume"
	}
	return awaitReply(br, stage)
}

// awaitReply returns the next OK frame's body, skipping ACK frames (a
// resumable session acknowledges each IQ frame, so ACKs may be queued
// ahead of the reply a synchronous caller is waiting for). An ERROR
// frame maps to a *ServerError in the error chain.
func awaitReply(br *bufio.Reader, stage string) ([]byte, error) {
	for {
		typ, body, err := ReadFrame(br)
		if err != nil {
			return nil, fmt.Errorf("server: %s: reading reply: %w", stage, err)
		}
		switch typ {
		case FrameOK:
			return body, nil
		case FrameAck:
			continue
		case FrameError:
			return nil, fmt.Errorf("server: %s rejected: %w", stage, parseServerError(body))
		default:
			return nil, fmt.Errorf("server: %s: unexpected reply frame 0x%02x", stage, typ)
		}
	}
}

// parseServerError decodes an ERROR body, keeping an unstructured (v1)
// body as a terminal error's reason.
func parseServerError(body []byte) *ServerError {
	se, err := ParseErrorBody(body)
	if err != nil {
		return &ServerError{Reason: string(body)}
	}
	return se
}

// WriteIQ streams samples to the session, splitting into IQ frames of
// at most MaxIQSamples.
func (c *Client) WriteIQ(iq []complex128) error {
	for len(iq) > 0 {
		n := len(iq)
		if n > MaxIQSamples {
			n = MaxIQSamples
		}
		c.buf = AppendIQBody(c.buf[:0], iq[:n])
		if err := WriteFrame(c.bw, FrameIQ, c.buf); err != nil {
			return err
		}
		iq = iq[n:]
	}
	return c.bw.Flush()
}

// StreamCF32 reads a cf32 stream (a file, cic-gen output, stdin) and
// feeds it to the session in chunks of chunkSamples (default
// MaxIQSamples/4 when ≤ 0), with constant memory. Returns the sample
// count sent.
func (c *Client) StreamCF32(r io.Reader, chunkSamples int) (int64, error) {
	if chunkSamples <= 0 {
		chunkSamples = MaxIQSamples / 4
	}
	cr := cic.NewCF32Reader(r)
	buf := make([]complex128, chunkSamples)
	var total int64
	for {
		n, err := cr.Read(buf)
		if n > 0 {
			if werr := c.WriteIQ(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// SetDeadline bounds subsequent reads and writes (e.g. around Close's
// drain wait).
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close ends the stream: it sends CLOSE, waits for the server's drain
// acknowledgement (every fully-buffered packet published), and closes
// the connection. A nil error therefore means the session flushed
// cleanly.
func (c *Client) Close() error {
	err := WriteFrame(c.bw, FrameClose, nil)
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		_, err = awaitReply(c.br, "close")
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the connection without the CLOSE handshake — an abrupt
// disconnect, as when a front end loses power. The server still flushes
// whatever the session had buffered.
func (c *Client) Abort() error { return c.conn.Close() }

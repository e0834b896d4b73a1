// Package resume is the wire-free core of the resumable-stream protocol
// behind server.ReconnectingClient, the server's session parking and
// the cluster router: the receiver's session life cycle (Phase, Event,
// Step), the sender's retained tail (Tail) and the receiver's park
// table (Table). The RESUME wire dialog lives in internal/server, and
// docs/SERVER.md ("Resumable streams") describes the protocol.
//
// The contract: the receiver ingests each station's sample stream
// exactly once and in order. A resumed session continues at the
// receiver's ingested-sample offset, the sender replays its tail from
// there, and an offset the tail can no longer serve is ErrResumeGap,
// never skipped.
package resume

import "errors"

// ErrResumeGap reports that the receiver's resume offset fell behind
// the sender's retained tail: samples it never ingested were already
// discarded (the parked session expired, or the receiver restarted), so
// the stream must be restarted from scratch.
var ErrResumeGap = errors.New("server: resume offset behind retained data")

// Phase is a resumable session's place in its life cycle.
type Phase uint8

const (
	Attached Phase = iota // a connection is streaming it
	Parked                // its connection died; the resume window is open
	Released              // drained, reservation returned (terminal)
)

// Event is something that happens to a session.
type Event uint8

const (
	Drop    Event = iota // abnormal disconnect
	Reclaim              // a RESUME matched the parked session
	Expire               // the park timer fired
	Finish               // CLOSE drain, failure, idle timeout or shutdown
)

// Step is the session transition function: the phase after ev, and
// whether ev applies in p. An event that does not apply lost a race (an
// expiry after a reclaim, a reclaim after the release) and must have no
// effect.
func Step(p Phase, ev Event) (Phase, bool) {
	switch {
	case p == Attached && ev == Drop:
		return Parked, true
	case p == Parked && ev == Reclaim:
		return Attached, true
	case p == Attached && ev == Finish, p == Parked && (ev == Expire || ev == Finish):
		return Released, true
	}
	return p, false
}

package probe

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Handshake failure classes, distinguishable with errors.Is so a fleet
// scheduler can react differently to "pick another server" (draining),
// "back off and retry later" (busy), and "maybe packet loss"
// (unresponsive).
var (
	// ErrServerBusy: the server explicitly rejected admission (at
	// capacity or rate-limiting this source) for the whole retry
	// budget.
	ErrServerBusy = errors.New("probe: server busy")
	// ErrServerDraining: the server is shutting down; retrying it is
	// pointless.
	ErrServerDraining = errors.New("probe: server draining")
	// ErrServerUnresponsive: no reply of any kind for the whole retry
	// budget.
	ErrServerUnresponsive = errors.New("probe: server unresponsive")
)

// Timing of a session's edges, one set for every client.
const (
	// maxHandshakeTimeout caps the doubled per-attempt reply deadline.
	maxHandshakeTimeout = 2 * time.Second
	// byeRetransmits is how many extra Bye copies a client sends beyond
	// the first, byeSpacing apart.
	byeRetransmits = 2
	byeSpacing     = 20 * time.Millisecond
	// trailingAckWait lets in-flight acks land after the last send.
	trailingAckWait = 50 * time.Millisecond
	// maxPacingDebt is how far behind schedule the sender may fall
	// before it stops trying to catch up.
	maxPacingDebt = 100 * time.Millisecond
)

// phase is where a session is.
type phase uint8

const (
	phaseHello phase = iota // Hellos with backoff until a Hi
	phaseData               // paced data, acks and the stall watchdog
	phaseTrail              // sending is over; trailing acks still land
	phaseBye                // retransmitted Byes
	phaseDone
)

// DataPhase is one client session: Hellos with jittered exponential
// backoff until the server admits it, a paced data phase with ack
// handling and a stall watchdog, a short wait for trailing acks, then
// retransmitted Byes. Client and the load harness's workers both run
// it; each supplies only its pacing, what an ack does, and its stall
// watchdog.
//
// It is a single-threaded state machine on the session clock, which
// starts at 0 before the first Hello: Wake and Receive are given now,
// every datagram goes out through Send, and Next says when Wake is due.
// Run binds it to a UDP socket and the wall clock; a simulator can bind
// it to its links and its virtual clock.
//
// A server that refuses a Hello answers with an explicit Busy: the
// session then backs off by the server's retry-after hint (jittered,
// so a synchronized fleet does not thundering-herd a recovering
// server) instead of burning the timeout schedule, and a draining
// server fails it at once with ErrServerDraining. Exhausting the
// Hellos fails it with ErrServerBusy if any Busy was seen and
// ErrServerUnresponsive otherwise.
type DataPhase struct {
	Server  string
	Session uint64
	// Rand jitters the handshake.
	Rand *rand.Rand
	// HandshakeAttempts Hellos are sent at most; each waits
	// HandshakeTimeout for a reply, doubled per silent attempt and
	// capped at 2s.
	HandshakeAttempts int
	HandshakeTimeout  time.Duration
	// Duration is the data phase's length; PacketSize each data
	// packet's wire size.
	Duration   time.Duration
	PacketSize int
	// StallTimeout ends the data phase early once packets have been
	// sent and no ack has arrived for this long; 0 disables it.
	StallTimeout time.Duration

	// Admitted runs once with the server's Hi at session time now,
	// before the data phase starts.
	Admitted func(hi Header, now time.Duration)
	// Paced runs after each packet is sent, at session time now, and
	// returns the gap to the next packet.
	Paced func(now time.Duration) time.Duration
	// Ack runs once per data packet the server acknowledges, at the
	// first ack whose echoed send time gives an rtt in (0, now].
	Ack func(now, rtt time.Duration)
	// Send carries one datagram to the server. An error fails the
	// handshake, truncates the data phase, or ends the Byes.
	Send func(b []byte) error

	// Ended is the session time at which the data phase ended, before
	// the Byes. Truncated, when non-empty, says why it ended before
	// Duration. Err, once Done, is why no data phase took place.
	Ended     time.Duration
	Truncated string
	Err       error

	phase   phase
	at      time.Duration // when Wake is due
	attempt int           // Hellos sent
	busy    int           // Busy replies seen
	timeout time.Duration // the current Hello's reply window, unjittered
	backoff bool          // the wait is a Busy's retry-after
	seq     uint64        // data packets sent
	next    time.Duration // the next data packet's send time
	end     time.Duration // the data phase's deadline
	lastAck time.Duration
	acked   []uint64 // one bit per data packet acknowledged
	byes    uint64
	buf     []byte
}

// Next is the session time at which Wake is next due.
func (p *DataPhase) Next() time.Duration { return p.at }

// Done reports that the session is over.
func (p *DataPhase) Done() bool { return p.phase == phaseDone }

// Wake advances the session at session time now, at or after Next:
// it sends the next Hello, the data packets now due, or a Bye, ends the
// data phase at its deadline or on a stall, and sets the next wake-up.
func (p *DataPhase) Wake(now time.Duration) {
	switch p.phase {
	case phaseHello:
		switch {
		case p.attempt == 0:
			p.timeout, p.buf = p.HandshakeTimeout, make([]byte, max(p.PacketSize, HeaderSize))
		case !p.backoff:
			p.timeout = min(2*p.timeout, maxHandshakeTimeout)
		}
		p.hello(now)
	case phaseData:
		p.pace(now)
	case phaseTrail:
		p.Ended, p.phase = now, phaseBye
		p.Wake(now)
	case phaseBye:
		// Bye, retransmitted: it is fire-and-forget on the wire, and a
		// single lost copy would leak the session slot on the server
		// until its TTL sweep. A few spaced copies make that loss
		// quadratically unlikely; the server treats duplicates as
		// no-ops. A send error means the server is gone.
		err := p.send(Header{Type: TypeBye, Seq: p.byes, SendNano: int64(now)}, HeaderSize)
		if p.byes++; err != nil || p.byes > byeRetransmits {
			p.phase = phaseDone
		}
		p.at = now + byeSpacing
	}
}

// hello sends the next Hello and waits for its reply, or fails the
// session once every attempt is spent.
func (p *DataPhase) hello(now time.Duration) {
	if p.attempt == p.HandshakeAttempts {
		if p.busy > 0 {
			p.fail(fmt.Errorf("probe: server %s refused admission %d times over %d attempts: %w",
				p.Server, p.busy, p.attempt, ErrServerBusy))
		} else {
			p.fail(fmt.Errorf("probe: server %s: no reply to %d handshake attempts: %w",
				p.Server, p.attempt, ErrServerUnresponsive))
		}
		return
	}
	h := Header{Type: TypeHello, Flags: FlagBusyAware, Seq: uint64(p.attempt), SendNano: int64(now)}
	if err := p.send(h, HeaderSize); err != nil {
		p.fail(fmt.Errorf("probe: sending hello: %w", err))
		return
	}
	p.attempt++
	// Jitter the attempt window ±25% so a fleet of clients started
	// together decorrelates instead of re-colliding every retry.
	p.at = now + p.timeout + time.Duration((p.Rand.Float64()-0.5)*0.5*float64(p.timeout))
	p.backoff = false
}

// pace sends the data packets due at now, or ends the data phase.
func (p *DataPhase) pace(now time.Duration) {
	switch {
	case now >= p.end:
		p.endData(now, "")
		return
	case p.StallTimeout > 0 && p.seq > 0 && now-p.lastAck > p.StallTimeout:
		p.endData(now, fmt.Sprintf("no acknowledgment for %v (server dead or path blackholed)", p.StallTimeout))
		return
	}
	for p.next <= now {
		h := Header{Type: TypeData, Seq: p.seq, SendNano: int64(now), Size: uint16(p.PacketSize)}
		if err := p.send(h, p.PacketSize); err != nil {
			// Connected UDP sockets surface ICMP unreachable as a
			// write error: the server vanished.
			p.endData(now, fmt.Sprintf("send failed: %v", err))
			return
		}
		p.seq++
		if p.next += p.Paced(now); p.next < now-maxPacingDebt {
			p.next = now // don't accumulate unbounded debt
		}
	}
	p.at = min(p.next, p.end)
	if p.StallTimeout > 0 { // the first instant the watchdog would fire
		p.at = min(p.at, p.lastAck+p.StallTimeout+1)
	}
}

// Receive handles one datagram from the server at session time now:
// a Hi or Busy answering the handshake, or an ack during the data
// phase and its trailing wait. Anything else, and an ack for another
// session, for a packet not sent or already acknowledged, or with an
// echoed send time outside the session, changes nothing.
func (p *DataPhase) Receive(b []byte, now time.Duration) {
	h, err := Decode(b)
	switch {
	case err != nil || h.Session != p.Session:
	case p.phase == phaseHello && h.Type == TypeHi:
		p.phase, p.end, p.lastAck, p.next, p.at = phaseData, now+p.Duration, now, now, now
		p.Admitted(h, now)
	case p.phase == phaseHello && h.Type == TypeBusy && !p.backoff:
		if h.Flags&FlagDraining != 0 {
			p.fail(fmt.Errorf("probe: server %s: %w", p.Server, ErrServerDraining))
			return
		}
		// Back off by the server's hint (Size = milliseconds),
		// jittered over [0.5x, 1.5x].
		p.busy++
		hint := time.Duration(h.Size) * time.Millisecond
		if hint <= 0 {
			hint = p.timeout
		}
		p.at, p.backoff = now+hint/2+time.Duration(p.Rand.Float64()*float64(hint)), true
	case (p.phase == phaseData || p.phase == phaseTrail) && h.Type == TypeAck && h.Seq < p.seq:
		rtt := echoRTT(h.EchoNano, now)
		w, bit := h.Seq/64, uint64(1)<<(h.Seq%64)
		for uint64(len(p.acked)) <= w {
			p.acked = append(p.acked, 0)
		}
		if rtt > 0 && p.acked[w]&bit == 0 {
			p.acked[w] |= bit
			p.lastAck = now
			p.Ack(now, rtt)
		}
	}
}

// echoRTT is the round trip an echoed session time gives at session
// time now: now-echo when that lies in (0, now], else 0.
func echoRTT(echo int64, now time.Duration) time.Duration {
	if echo < 0 || time.Duration(echo) >= now {
		return 0
	}
	return now - time.Duration(echo)
}

// stop ends the session early at now: a handshake fails with err, a
// data phase ends untruncated and the Byes still go out.
func (p *DataPhase) stop(now time.Duration, err error) {
	switch p.phase {
	case phaseHello:
		p.fail(err)
	case phaseData:
		p.endData(now, "")
	}
}

func (p *DataPhase) endData(now time.Duration, why string) {
	p.Truncated, p.phase, p.at = why, phaseTrail, now+trailingAckWait
}

func (p *DataPhase) fail(err error) { p.Err, p.phase = err, phaseDone }

// send encodes h, from this session, into the first n bytes of the
// packet buffer and hands them to Send.
func (p *DataPhase) send(h Header, n int) error {
	h.Session = p.Session
	if _, err := h.Encode(p.buf[:n]); err != nil {
		return err
	}
	return p.Send(p.buf[:n])
}

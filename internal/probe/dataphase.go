package probe

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Timing of the data phase's edges, one set for every client.
const (
	// byeRetransmits is how many extra Bye copies a client sends beyond
	// the first, byeSpacing apart.
	byeRetransmits  = 2
	byeSpacing      = 20 * time.Millisecond
	byeWriteTimeout = 100 * time.Millisecond
	// trailingAckWait lets in-flight acks land after the last send.
	trailingAckWait = 50 * time.Millisecond
	// maxPaceSleep bounds one pacing sleep so the stall watchdog and
	// cancellation stay live; ackPoll is the reader's deadline.
	maxPaceSleep = 100 * time.Millisecond
	ackPoll      = 200 * time.Millisecond
	// maxPacingDebt is how far behind schedule the sender may fall
	// before it stops trying to catch up.
	maxPacingDebt = 100 * time.Millisecond
)

// DataPhase is one client session on the wire: dial, Handshake, a
// paced data phase with a concurrent ack reader, a short wait for
// trailing acks, then retransmitted Byes. Client and the load
// harness's workers both run it; each supplies only its pacing, what
// an ack does, and its stall watchdog.
type DataPhase struct {
	Server  string
	Session uint64
	// Rand jitters the handshake.
	Rand              *rand.Rand
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
	// Paced runs after each packet is written, at session time now,
	// and returns the gap to the next packet.
	Paced func(now time.Duration) time.Duration
	// Ack runs on the reader goroutine for each ack of this session
	// whose echoed timestamp gives a positive rtt.
	Ack func(h Header, now, rtt time.Duration)

	// Start is the session clock's origin, taken before the handshake;
	// Ended is when the data phase ended, before the Byes. Truncated,
	// when non-empty, says why it ended before Duration.
	Start, Ended time.Time
	Truncated    string

	lastAck atomic.Int64 // session time of the latest ack, ns
	stop    atomic.Bool
}

func (p *DataPhase) now() time.Duration { return time.Since(p.Start) }

// Run performs the session. It returns an error only when no data
// phase took place: a resolve or dial failure, or the handshake's
// (classified as Handshake documents). A stall or a socket error ends
// the data phase early with Truncated set, a cancelled ctx without it;
// either way the Byes still go out.
func (p *DataPhase) Run(ctx context.Context) error {
	raddr, err := net.ResolveUDPAddr("udp", p.Server)
	if err != nil {
		return fmt.Errorf("probe: resolving server: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return fmt.Errorf("probe: dialing server: %w", err)
	}
	defer conn.Close()

	p.Start = time.Now()
	hi, err := Handshake(ctx, conn, p.Rand, p.Session, p.Start, p.HandshakeAttempts, p.HandshakeTimeout)
	if err != nil {
		return err
	}
	p.Admitted(hi, p.now())

	deadline := time.Now().Add(p.Duration)
	p.lastAck.Store(int64(p.now()))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.receive(conn, deadline)
	}()
	p.send(ctx, conn, deadline)
	time.Sleep(trailingAckWait)
	p.stop.Store(true)
	conn.SetReadDeadline(time.Now())
	wg.Wait()
	p.Ended = time.Now()

	// Bye, retransmitted: it is fire-and-forget on the wire, and a
	// single lost copy would leak the session slot on the server until
	// its TTL sweep. A few spaced copies make that loss quadratically
	// unlikely; the server treats duplicates as no-ops.
	buf := make([]byte, HeaderSize)
	for i := 0; i <= byeRetransmits; i++ {
		if i > 0 {
			time.Sleep(byeSpacing)
		}
		bye := Header{Type: TypeBye, Session: p.Session, Seq: uint64(i), SendNano: int64(p.now())}
		if n, err := bye.Encode(buf); err == nil {
			conn.SetWriteDeadline(time.Now().Add(byeWriteTimeout))
			if _, err := conn.Write(buf[:n]); err != nil {
				break // server gone; nothing left to release
			}
		}
	}
	return nil
}

func (p *DataPhase) send(ctx context.Context, conn *net.UDPConn, deadline time.Time) {
	buf := make([]byte, p.PacketSize)
	var seq uint64
	next := time.Now()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if p.StallTimeout > 0 && seq > 0 && p.now()-time.Duration(p.lastAck.Load()) > p.StallTimeout {
			p.Truncated = fmt.Sprintf("no acknowledgment for %v (server dead or path blackholed)", p.StallTimeout)
			return
		}
		now := time.Now()
		if now.Before(next) {
			time.Sleep(min(next.Sub(now), maxPaceSleep))
			continue
		}
		h := Header{
			Type:     TypeData,
			Session:  p.Session,
			Seq:      seq,
			SendNano: int64(p.now()),
			Size:     uint16(p.PacketSize),
		}
		if _, err := h.Encode(buf); err != nil {
			p.Truncated = fmt.Sprintf("encoding data packet: %v", err)
			return
		}
		if _, err := conn.Write(buf); err != nil {
			// Connected UDP sockets surface ICMP unreachable as a
			// write error: the server vanished.
			p.Truncated = fmt.Sprintf("send failed: %v", err)
			return
		}
		seq++
		next = next.Add(p.Paced(p.now()))
		if behind := time.Now(); next.Before(behind.Add(-maxPacingDebt)) {
			next = behind // don't accumulate unbounded debt
		}
	}
}

func (p *DataPhase) receive(conn *net.UDPConn, deadline time.Time) {
	buf := make([]byte, 2048)
	for {
		conn.SetReadDeadline(time.Now().Add(ackPoll))
		n, err := conn.Read(buf)
		if err != nil {
			if p.stop.Load() || time.Now().After(deadline) {
				return
			}
			continue
		}
		h, err := Decode(buf[:n])
		if err != nil || h.Type != TypeAck || h.Session != p.Session {
			continue
		}
		now := p.now()
		rtt := now - time.Duration(h.EchoNano)
		if rtt <= 0 {
			continue
		}
		p.lastAck.Store(int64(now))
		p.Ack(h, now, rtt)
	}
}

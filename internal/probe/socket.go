package probe

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// The socket adapter: the one place a session and the server's packet
// path meet a UDP socket and the wall clock.

// ctxPoll bounds one read wait, so a cancelled ctx is seen promptly;
// a datagram the socket cannot take within writeTimeout is a send
// error.
const (
	ctxPoll      = 100 * time.Millisecond
	writeTimeout = 100 * time.Millisecond
)

// Run binds the session to a UDP socket dialed to Server and to the
// wall clock, and drives it on the calling goroutine until it is Done.
// It returns an error only when no data phase took place: a resolve or
// dial failure, or the handshake's (see DataPhase). Cancelling ctx
// fails a handshake with ctx's error and ends a data phase early,
// untruncated; the Byes still go out.
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
	return p.drive(ctx, conn)
}

// drive runs the session over conn, on the calling goroutine.
func (p *DataPhase) drive(ctx context.Context, conn *net.UDPConn) error {
	p.Send = func(b []byte) error {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := conn.Write(b)
		return err
	}
	start := time.Now()
	buf := make([]byte, 2048)
	for !p.Done() {
		now := time.Since(start)
		if err := ctx.Err(); err != nil {
			p.stop(now, err)
		}
		if p.Next() <= now {
			p.Wake(now)
			continue
		}
		// A read error (the deadline, or an ICMP refusal surfacing on
		// the connected socket) only ends this wait.
		conn.SetReadDeadline(start.Add(min(p.Next(), now+ctxPoll)))
		if n, err := conn.Read(buf); err == nil {
			p.Receive(buf[:n], time.Since(start))
		}
	}
	return p.Err
}

// readLoop is one reader goroutine of Serve: a private read buffer and
// a private reply buffer, so concurrent readers never share packet
// memory.
func (s *Server) readLoop() error {
	buf := make([]byte, 64*1024)
	out := make([]byte, HeaderSize)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		reply := s.HandleDatagram(buf[:n], raddr, time.Since(s.start), out)
		if reply == nil {
			continue
		}
		if _, err := s.conn.WriteToUDP(reply, raddr); err != nil && !s.closed.Load() {
			s.logf("probe: write to %v: %v", raddr, err)
		}
	}
}

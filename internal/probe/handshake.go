package probe

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
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

// maxHandshakeTimeout caps the doubled per-attempt reply deadline.
const maxHandshakeTimeout = 2 * time.Second

// Handshake exchanges Hello/Hi on conn with jittered exponential
// backoff and returns the server's Hi header, whose EchoNano gives the
// first RTT sample. It sends up to attempts Hellos; each waits timeout
// for a reply, doubled per silent attempt and capped at 2s. start is
// the session's clock origin (SendNano is measured from it) and rng
// supplies the jitter.
//
// A server that refuses the Hello answers with an explicit Busy (the
// Hello sets FlagBusyAware for servers that still ask for it): the
// caller then backs off by the server's retry-after hint (jittered, so
// a synchronized fleet does not thundering-herd a recovering server)
// rather than burning the timeout schedule, and a draining server
// fails at once with ErrServerDraining. Exhausting the budget yields
// ErrServerBusy if any Busy was seen and ErrServerUnresponsive
// otherwise; a cancelled ctx yields its error.
func Handshake(ctx context.Context, conn *net.UDPConn, rng *rand.Rand, session uint64,
	start time.Time, attempts int, timeout time.Duration) (Header, error) {
	out := make([]byte, HeaderSize)
	in := make([]byte, 2048)
	busySeen := 0
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Header{}, err
		}
		h := Header{
			Type:     TypeHello,
			Flags:    FlagBusyAware,
			Session:  session,
			Seq:      uint64(attempt),
			SendNano: time.Since(start).Nanoseconds(),
		}
		n, err := h.Encode(out)
		if err != nil {
			return Header{}, fmt.Errorf("probe: encoding hello: %w", err)
		}
		if _, err := conn.Write(out[:n]); err != nil {
			return Header{}, fmt.Errorf("probe: sending hello: %w", err)
		}
		// Jitter the attempt window ±25% so a fleet of clients started
		// together decorrelates instead of re-colliding every retry.
		window := timeout + time.Duration((rng.Float64()-0.5)*0.5*float64(timeout))
		attemptDeadline := time.Now().Add(window)
		busyThisAttempt := false
		for {
			conn.SetReadDeadline(attemptDeadline)
			rn, err := conn.Read(in)
			if err != nil {
				// An active refusal (ICMP unreachable) errors instantly;
				// sleep out the attempt anyway so the backoff schedule
				// holds and a restarting server gets time to come up.
				if !sleepCtx(ctx, time.Until(attemptDeadline)) {
					return Header{}, ctx.Err()
				}
				break // attempt over: back off and resend
			}
			hi, err := Decode(in[:rn])
			if err != nil || hi.Session != session {
				continue // stray packet; keep waiting for our reply
			}
			switch hi.Type {
			case TypeHi:
				return hi, nil
			case TypeBusy:
				if hi.Flags&FlagDraining != 0 {
					return Header{}, fmt.Errorf("probe: server %s: %w", conn.RemoteAddr(), ErrServerDraining)
				}
				busySeen++
				busyThisAttempt = true
				// Back off by the server's hint (Size = milliseconds),
				// jittered over [0.5x, 1.5x].
				hint := time.Duration(hi.Size) * time.Millisecond
				if hint <= 0 {
					hint = timeout
				}
				if !sleepCtx(ctx, hint/2+time.Duration(rng.Float64()*float64(hint))) {
					return Header{}, ctx.Err()
				}
			default:
				continue // stray packet; keep waiting for our reply
			}
			break // Busy handled: next attempt
		}
		if !busyThisAttempt {
			timeout = min(2*timeout, maxHandshakeTimeout)
		}
	}
	if busySeen > 0 {
		return Header{}, fmt.Errorf("probe: server %s refused admission %d times over %d attempts: %w",
			conn.RemoteAddr(), busySeen, attempts, ErrServerBusy)
	}
	return Header{}, fmt.Errorf("probe: server %s: no reply to %d handshake attempts: %w",
		conn.RemoteAddr(), attempts, ErrServerUnresponsive)
}

// sleepCtx sleeps for d (not at all when d <= 0) and reports whether
// ctx is still live afterwards.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

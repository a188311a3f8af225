package probe

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

func dialUDP(t *testing.T, addr net.Addr) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// muteSocket is a bound UDP socket nobody reads: no reply and no ICMP
// refusal.
func muteSocket(t *testing.T) net.Addr {
	t.Helper()
	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mute.Close() })
	return mute.LocalAddr()
}

// Handshake runs a session's handshake alone over conn through the
// socket adapter and returns the server's Hi. The session stops at the
// Hi, so the server keeps it. start is unused: the session clock
// starts with the first Hello.
func Handshake(ctx context.Context, conn *net.UDPConn, rng *rand.Rand, session uint64,
	start time.Time, attempts int, timeout time.Duration) (Header, error) {
	var hi Header
	p := &DataPhase{Server: conn.RemoteAddr().String(), Session: session, Rand: rng,
		HandshakeAttempts: attempts, HandshakeTimeout: timeout}
	p.Admitted = func(h Header, _ time.Duration) { hi = h; p.fail(nil) }
	err := p.drive(ctx, conn)
	return hi, err
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestHandshake drives the one handshake every client shares against
// an in-process Server in each admission state.
func TestHandshake(t *testing.T) {
	const session = 77
	shake := func(t *testing.T, addr net.Addr, attempts int, timeout time.Duration) (Header, time.Duration, error) {
		start := time.Now()
		hi, err := Handshake(context.Background(), dialUDP(t, addr), rand.New(rand.NewSource(1)),
			session, start, attempts, timeout)
		return hi, time.Since(start), err
	}

	t.Run("admitted", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		hi, _, err := shake(t, srv.Addr(), 3, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if hi.Type != TypeHi || hi.Session != session || hi.EchoNano <= 0 {
			t.Errorf("Hi = %+v, want our session with the Hello's send time echoed", hi)
		}
		if srv.ActiveSessions() != 1 {
			t.Errorf("server tracks %d sessions, want 1", srv.ActiveSessions())
		}
	})

	t.Run("busy then admitted", func(t *testing.T) {
		const hint = 80 * time.Millisecond
		srv := startServer(t, ServerConfig{MaxSessions: 1, BusyRetryHint: hint})
		holder := dialUDP(t, srv.Addr())
		if _, err := Handshake(context.Background(), holder, rand.New(rand.NewSource(2)), 1, time.Now(), 3, time.Second); err != nil {
			t.Fatal(err)
		}
		// Free the only slot as soon as the server has turned us away.
		go func() {
			for give := time.Now().Add(5 * time.Second); srv.Stats.BusySent.Value() == 0 && time.Now().Before(give); {
				time.Sleep(time.Millisecond)
			}
			bye := Header{Type: TypeBye, Session: 1}
			buf := make([]byte, HeaderSize)
			bye.Encode(buf)
			holder.Write(buf)
		}()
		// A 10 s reply deadline: only the hinted back-off can explain
		// an admission within a few seconds.
		_, took, err := shake(t, srv.Addr(), 5, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats.BusySent.Value(); got < 1 {
			t.Errorf("server sent %d Busy replies, want >= 1", got)
		}
		if took < hint/2 || took > 3*time.Second {
			t.Errorf("admitted after %v, want the jittered hint (>= %v) and not the reply deadline", took, hint/2)
		}
	})

	t.Run("draining", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		srv.BeginDrain()
		_, took, err := shake(t, srv.Addr(), 5, 500*time.Millisecond)
		if !errors.Is(err, ErrServerDraining) {
			t.Fatalf("error = %v, want ErrServerDraining", err)
		}
		if got := srv.Stats.DrainRejected.Value(); got != 1 || took > 2*time.Second {
			t.Errorf("%d Hellos over %v, want one and no retry against a draining node", got, took)
		}
	})

	t.Run("silent", func(t *testing.T) {
		_, took, err := shake(t, muteSocket(t), 3, 40*time.Millisecond)
		if !errors.Is(err, ErrServerUnresponsive) {
			t.Fatalf("error = %v, want ErrServerUnresponsive", err)
		}
		// Windows of 40, 80, 160 ms, each jittered down by at most 25%.
		if min := 210 * time.Millisecond; took < min || took > 5*time.Second {
			t.Errorf("gave up after %v, want the whole back-off schedule (>= %v)", took, min)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Handshake(ctx, dialUDP(t, muteSocket(t)), rand.New(rand.NewSource(1)), session, time.Now(), 3, time.Second)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error = %v, want context.Canceled", err)
		}
	})
}

package load

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/probe"
)

// TestRunAdmitsAllUnderCapacity: a small in-process run where the
// server has room for everyone — every client admits, data flows, and
// the latency sketch fills.
func TestRunAdmitsAllUnderCapacity(t *testing.T) {
	srv, err := probe.NewServer(probe.ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 64, SessionTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		Server:       srv.Addr().String(),
		Clients:      20,
		Ramp:         100 * time.Millisecond,
		Duration:     400 * time.Millisecond,
		RateBps:      64e3,
		packetSize:   128,
		seed:         7,
		SampleActive: srv.ActiveSessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 20 {
		t.Errorf("admitted %d/20 (busy %d, draining %d, unresponsive %d, errors %d)",
			res.Admitted, res.Busy, res.Draining, res.Unresponsive, res.Errors)
	}
	if res.Errors != 0 {
		t.Errorf("%d client errors", res.Errors)
	}
	if res.Acked == 0 {
		t.Error("no data acked")
	}
	if res.PeakConcurrent == 0 || res.PeakConcurrent > 20 {
		t.Errorf("peak concurrency %d outside (0, 20]", res.PeakConcurrent)
	}
	if res.PeakServerSessions == 0 || res.PeakServerSessions > 64 {
		t.Errorf("peak server sessions %d outside (0, 64]", res.PeakServerSessions)
	}
	if q := res.LatencyQuantile(0.99); q <= 0 {
		t.Errorf("ack latency p99 = %v, want > 0", q)
	}
	if lr := res.LossRate(); lr < 0 || lr > 1 {
		t.Errorf("loss rate %f outside [0, 1]", lr)
	}
}

// TestRunReportsBusyAtCap: with a server capped well below the client
// count, the harness reports the overflow as Busy — explicit admission
// rejections, not unresponsiveness — and the cap holds exactly.
func TestRunReportsBusyAtCap(t *testing.T) {
	srv, err := probe.NewServer(probe.ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 5, SessionTTL: time.Minute,
		BusyRetryHint: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// One handshake attempt each: an overflow client must not sneak in
	// later once an admitted client's session ends and frees a slot.
	res, err := Run(context.Background(), Config{
		Server:            srv.Addr().String(),
		Clients:           12,
		Ramp:              50 * time.Millisecond,
		Duration:          500 * time.Millisecond,
		RateBps:           64e3,
		packetSize:        128,
		seed:              8,
		HandshakeAttempts: 1,
		HandshakeTimeout:  100 * time.Millisecond,
		SampleActive:      srv.ActiveSessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 5 {
		t.Errorf("admitted %d, want exactly the cap of 5", res.Admitted)
	}
	if res.Busy != 7 {
		t.Errorf("busy %d, want the 7 overflow clients (unresponsive %d, errors %d)",
			res.Busy, res.Unresponsive, res.Errors)
	}
	if res.PeakServerSessions > 5 {
		t.Errorf("peak server sessions %d over-admitted past the cap", res.PeakServerSessions)
	}
	if res.Unresponsive != 0 {
		t.Errorf("%d clients saw silence; a busy server must signal explicitly", res.Unresponsive)
	}
}

// TestRunHonorsContextCancel: cancelling mid-run returns promptly with
// partial results instead of hanging for the full duration.
func TestRunHonorsContextCancel(t *testing.T) {
	srv, err := probe.NewServer(probe.ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 64, SessionTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	startAt := time.Now()
	res, err := Run(ctx, Config{
		Server:     srv.Addr().String(),
		Clients:    10,
		Ramp:       50 * time.Millisecond,
		Duration:   30 * time.Second,
		RateBps:    64e3,
		packetSize: 128,
		seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(startAt); el > 5*time.Second {
		t.Errorf("cancelled run took %v", el)
	}
	if res.Clients != 10 {
		t.Errorf("result covers %d clients, want 10", res.Clients)
	}
}

// TestWorkerSleepsOutRefusedAttempts: a closed port answers every Hello
// with an ICMP refusal, which fails the read at once. The worker must
// still spend each attempt's window — the real client's schedule —
// before it reports unresponsive.
func TestWorkerSleepsOutRefusedAttempts(t *testing.T) {
	closed, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := closed.LocalAddr().String()
	closed.Close()

	startAt := time.Now()
	res, err := Run(context.Background(), Config{
		Server: addr, Clients: 1, Ramp: time.Millisecond,
		HandshakeAttempts: 3, HandshakeTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unresponsive != 1 {
		t.Errorf("unresponsive %d, want 1 (errors %d)", res.Unresponsive, res.Errors)
	}
	// Windows of 40, 80, 160 ms, each jittered down by at most 25%.
	if el, min := time.Since(startAt), 210*time.Millisecond; el < min {
		t.Errorf("gave up after %v, want at least the attempt windows (%v)", el, min)
	}
}

// TestWorkerTimeoutStopsDoublingAtTwoSeconds: against a silent server
// the gap between the second and third Hello is the second attempt
// window — 2 s after the cap (at most 2.5 s with jitter), 5 s (at least
// 3.75 s) if the 2.5 s timeout had simply doubled.
func TestWorkerTimeoutStopsDoublingAtTwoSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out two handshake windows (~5 s)")
	}
	t.Parallel()
	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	arrivals := make(chan time.Time, 3) // one slot per Hello
	go func() {
		buf := make([]byte, 2048)
		for i := 0; i < 3; i++ {
			if _, _, err := mute.ReadFromUDP(buf); err != nil {
				return
			}
			arrivals <- time.Now()
		}
		cancel() // third Hello seen: the rest of the schedule adds nothing
	}()
	if _, err := Run(ctx, Config{
		Server: mute.LocalAddr().String(), Clients: 1, Ramp: time.Millisecond,
		HandshakeAttempts: 3, HandshakeTimeout: 2500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("saw %d Hellos, want 3", len(arrivals))
	}
	<-arrivals
	second := <-arrivals
	if gap := (<-arrivals).Sub(second); gap > 3100*time.Millisecond {
		t.Errorf("second attempt window was %v, want the 2 s cap (<= 2.5 s jittered)", gap)
	}
}

// TestArrivalSchedules: the ramp gives one offset per client, evenly
// spaced from 0 and inside the ramp.
func TestArrivalSchedules(t *testing.T) {
	cfg := Config{Clients: 50, Ramp: time.Second}
	for i := 0; i < cfg.Clients; i++ {
		at := arrivalOffset(cfg, i)
		if want := time.Duration(i) * 20 * time.Millisecond; at != want {
			t.Errorf("client %d starts at %v, want %v", i, at, want)
		}
	}
}

// TestLoadWorkerByeRetransmits: a worker ends its session exactly as
// the real client does — 1 + 2 retransmitted Byes, spaced by the
// client's interval — against a bare responder that admits, acks Data
// and timestamps each Bye.
func TestLoadWorkerByeRetransmits(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	byes := make(chan time.Time, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		out := make([]byte, probe.HeaderSize)
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			h, err := probe.Decode(buf[:n])
			if err != nil {
				continue
			}
			reply := probe.Header{Session: h.Session, Seq: h.Seq, EchoNano: h.SendNano}
			switch h.Type {
			case probe.TypeHello:
				reply.Type = probe.TypeHi
			case probe.TypeData:
				reply.Type, reply.Size = probe.TypeAck, uint16(n)
			case probe.TypeBye:
				byes <- time.Now()
				continue
			default:
				continue
			}
			if wn, err := reply.Encode(out); err == nil {
				conn.WriteToUDP(out[:wn], raddr)
			}
		}
	}()
	defer func() { conn.Close(); <-done }()

	res, err := Run(context.Background(), Config{
		Server: conn.LocalAddr().String(), Clients: 1, Ramp: time.Millisecond,
		Duration: 200 * time.Millisecond, RateBps: 64e3, packetSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1 {
		t.Fatalf("admitted %d/1", res.Admitted)
	}
	var at []time.Time
	for deadline := time.After(time.Second); len(at) < 3; {
		select {
		case b := <-byes:
			at = append(at, b)
		case <-deadline:
			t.Fatalf("server received %d Byes, want 3 (1 + 2 retransmits)", len(at))
		}
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < 15*time.Millisecond {
			t.Errorf("Bye %d followed the previous by %v, want >= 15ms", i, gap)
		}
	}
}

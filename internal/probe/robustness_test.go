package probe

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/nimbus"
)

// flakyResponder is a bare UDP endpoint that ignores the first n Hello
// packets before behaving like a minimal server — the shape of a
// server behind a bursty or overloaded path.
func flakyResponder(t *testing.T, dropHellos int) (addr string, stop func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64*1024)
		out := make([]byte, HeaderSize)
		dropped := 0
		for {
			n, raddr, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			h, err := Decode(buf[:n])
			if err != nil {
				continue
			}
			switch h.Type {
			case TypeHello:
				if dropped < dropHellos {
					dropped++
					continue
				}
				reply := Header{Type: TypeHi, Session: h.Session, Seq: h.Seq, EchoNano: h.SendNano}
				if wn, err := reply.Encode(out); err == nil {
					conn.WriteToUDP(out[:wn], raddr)
				}
			case TypeData:
				ack := Header{Type: TypeAck, Session: h.Session, Seq: h.Seq,
					EchoNano: h.SendNano, Size: uint16(n)}
				if wn, err := ack.Encode(out); err == nil {
					conn.WriteToUDP(out[:wn], raddr)
				}
			}
		}
	}()
	return conn.LocalAddr().String(), func() { conn.Close(); <-done }
}

// TestHandshakeRetriesThroughDroppedHellos: a server that loses the
// first three Hellos must still be reached by backoff retry, and the
// measurement must complete normally.
func TestHandshakeRetriesThroughDroppedHellos(t *testing.T) {
	addr, stop := flakyResponder(t, 3)
	defer stop()

	c := NewClient(ClientConfig{
		Server:            addr,
		duration:          500 * time.Millisecond,
		Nimbus:            nimbus.Config{Mu: 2e6, SlideInterval: 100 * time.Millisecond, WindowSamples: 32},
		Seed:              3,
		handshakeAttempts: 5,
		HandshakeTimeout:  50 * time.Millisecond,
	})
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("client did not survive 3 dropped handshakes: %v", err)
	}
	if rep.Acked == 0 {
		t.Fatal("no acks after a retried handshake")
	}
	if rep.Truncated {
		t.Errorf("run truncated after successful handshake: %s", rep.TruncatedReason)
	}
}

// TestHandshakeExhaustionFailsFast: a silent server must produce a
// clear error within the bounded backoff budget, not a hang.
func TestHandshakeExhaustionFailsFast(t *testing.T) {
	addr, stop := flakyResponder(t, 1<<30) // never answers
	defer stop()

	c := NewClient(ClientConfig{
		Server:            addr,
		duration:          10 * time.Second,
		handshakeAttempts: 3,
		HandshakeTimeout:  40 * time.Millisecond,
	})
	startAt := time.Now()
	_, err := c.Run()
	if err == nil {
		t.Fatal("expected handshake failure against a silent server")
	}
	if !strings.Contains(err.Error(), "unresponsive") {
		t.Errorf("unexpected error: %v", err)
	}
	// 40 + 80 + 160 ms of waiting, plus slack: nowhere near Duration.
	if el := time.Since(startAt); el > 2*time.Second {
		t.Errorf("handshake exhaustion took %v; should fail fast", el)
	}
}

// TestMidRunServerDeathTruncates: killing the server mid-measurement
// must yield a truncated, low-confidence report well before the
// configured duration — not a hang, not a panic, not a crisp verdict.
func TestMidRunServerDeathTruncates(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	const duration = 3 * time.Second
	c := NewClient(ClientConfig{
		Server:       srv.Addr().String(),
		duration:     duration,
		Nimbus:       nimbus.Config{Mu: 2e6, SlideInterval: 100 * time.Millisecond, WindowSamples: 32},
		Seed:         4,
		stallTimeout: 400 * time.Millisecond,
	})
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv.Close()
	}()
	startAt := time.Now()
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("mid-run death should truncate, not error: %v", err)
	}
	elapsed := time.Since(startAt)
	if elapsed > duration {
		t.Errorf("run took %v, longer than the %v it should have cut short", elapsed, duration)
	}
	if !rep.Truncated {
		t.Fatalf("report not marked truncated (elapsed %v, acked %d)", elapsed, rep.Acked)
	}
	if rep.TruncatedReason == "" {
		t.Error("truncated report missing reason")
	}
	if rep.Confidence >= 0.5 {
		t.Errorf("confidence %.2f for a run cut at ~10%%; want < 0.5", rep.Confidence)
	}
	if rep.Reliable() {
		t.Error("truncated report claims to be reliable")
	}
	if rep.Verdict() != "inconclusive" {
		t.Errorf("verdict %q for a truncated run; want inconclusive", rep.Verdict())
	}
	if rep.Elapsed <= 0 || rep.Elapsed > elapsed+time.Second {
		t.Errorf("reported elapsed %v inconsistent with wall time %v", rep.Elapsed, elapsed)
	}
}

// TestServerCapsSessions: Hellos beyond MaxSessions get no Hi and are
// counted as rejections; established sessions keep working.
func TestServerCapsSessions(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxSessions: 2, SessionTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, HeaderSize)
	resp := make([]byte, 2048)
	hello := func(session uint64) (ok bool) {
		h := Header{Type: TypeHello, Session: session, SendNano: 1}
		h.Encode(buf)
		conn.Write(buf)
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Read(resp)
		if err != nil {
			return false
		}
		hi, err := Decode(resp[:n])
		return err == nil && hi.Type == TypeHi && hi.Session == session
	}

	if !hello(1) || !hello(2) {
		t.Fatal("sessions under the cap must be admitted")
	}
	if hello(3) {
		t.Fatal("third session admitted past MaxSessions=2")
	}
	if !hello(1) {
		t.Error("established session refused after cap reached")
	}
	if got := srv.ActiveSessions(); got != 2 {
		t.Errorf("active sessions = %d, want 2", got)
	}
	if srv.Stats.Rejected.Value() == 0 {
		t.Error("rejection not counted")
	}
}

// TestServerEvictsStaleSessions: a session idle past the TTL is swept,
// freeing its slot for a newcomer.
func TestServerEvictsStaleSessions(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxSessions: 1, SessionTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.Metrics()
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, HeaderSize)
	resp := make([]byte, 2048)
	hello := func(session uint64) bool {
		h := Header{Type: TypeHello, Session: session, SendNano: 1}
		h.Encode(buf)
		conn.Write(buf)
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Read(resp)
		if err != nil {
			return false
		}
		hi, err := Decode(resp[:n])
		return err == nil && hi.Type == TypeHi && hi.Session == session
	}

	if !hello(1) {
		t.Fatal("first session refused")
	}
	if hello(2) {
		t.Fatal("second session admitted with cap 1 and a live occupant")
	}
	time.Sleep(80 * time.Millisecond) // session 1 goes stale
	if !hello(2) {
		t.Fatal("stale session not evicted to admit a newcomer")
	}
	if srv.Stats.Evicted.Value() == 0 {
		t.Error("eviction not counted")
	}
	if got := reg.Counter("probe.server.evicted").Value(); got == 0 {
		t.Error("eviction not counted on the metrics registry")
	}
	if got := srv.ActiveSessions(); got != 1 {
		t.Errorf("active sessions = %d, want 1", got)
	}
	sess := srv.Sessions()
	if len(sess) != 1 || sess[0].ID != 2 {
		t.Errorf("Sessions() = %+v, want exactly session 2", sess)
	}
}

// TestByeFreesSession: a clean goodbye releases the slot immediately.
func TestByeFreesSession(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxSessions: 1, SessionTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, HeaderSize)
	h := Header{Type: TypeHello, Session: 1, SendNano: 1}
	h.Encode(buf)
	conn.Write(buf)
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	resp := make([]byte, 2048)
	if _, err := conn.Read(resp); err != nil {
		t.Fatal("first session refused")
	}

	bye := Header{Type: TypeBye, Session: 1}
	bye.Encode(buf)
	conn.Write(buf)
	deadline := time.Now().Add(time.Second)
	for srv.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.ActiveSessions(); got != 0 {
		t.Errorf("active sessions after bye = %d, want 0", got)
	}
}

package probe

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nimbus"
)

// scriptedResponder is a bare UDP endpoint with a programmable Hello
// policy; Data is always acked, and Byes are counted.
type scriptedResponder struct {
	conn  *net.UDPConn
	byes  atomic.Int64
	hails atomic.Int64 // hellos seen
	done  chan struct{}
}

// newScriptedResponder starts a responder whose onHello callback
// returns the reply header to send (nil = stay silent).
func newScriptedResponder(t *testing.T, onHello func(h Header, nth int64) *Header) *scriptedResponder {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r := &scriptedResponder{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		buf := make([]byte, 64*1024)
		out := make([]byte, HeaderSize)
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
				nth := r.hails.Add(1)
				if reply := onHello(h, nth); reply != nil {
					if wn, err := reply.Encode(out); err == nil {
						conn.WriteToUDP(out[:wn], raddr)
					}
				}
			case TypeData:
				ack := Header{Type: TypeAck, Session: h.Session, Seq: h.Seq,
					EchoNano: h.SendNano, Size: uint16(n)}
				if wn, err := ack.Encode(out); err == nil {
					conn.WriteToUDP(out[:wn], raddr)
				}
			case TypeBye:
				r.byes.Add(1)
			}
		}
	}()
	return r
}

func (r *scriptedResponder) addr() string { return r.conn.LocalAddr().String() }
func (r *scriptedResponder) stop()        { r.conn.Close(); <-r.done }

func busyReply(h Header, cause uint8, retryMs uint16) *Header {
	return &Header{Type: TypeBusy, Flags: cause, Session: h.Session, Seq: h.Seq,
		EchoNano: h.SendNano, Size: retryMs}
}

func hiReply(h Header) *Header {
	return &Header{Type: TypeHi, Session: h.Session, Seq: h.Seq, EchoNano: h.SendNano}
}

// TestClientRetriesAfterBusy: a Busy with a retry hint makes the client
// back off and try again within its attempt budget — and succeed once
// the server relents.
func TestClientRetriesAfterBusy(t *testing.T) {
	r := newScriptedResponder(t, func(h Header, nth int64) *Header {
		if nth <= 2 {
			return busyReply(h, FlagAtCapacity, 10)
		}
		return hiReply(h)
	})
	defer r.stop()

	c := NewClient(ClientConfig{
		Server:            r.addr(),
		duration:          300 * time.Millisecond,
		Nimbus:            nimbus.Config{Mu: 2e6, SlideInterval: 100 * time.Millisecond, WindowSamples: 32},
		Seed:              11,
		handshakeAttempts: 5,
		HandshakeTimeout:  100 * time.Millisecond,
	})
	rep, err := c.Run()
	if err != nil {
		t.Fatalf("client did not ride out two Busy rejections: %v", err)
	}
	if rep.Acked == 0 {
		t.Fatal("no acks after an eventually-admitted handshake")
	}
	if got := r.hails.Load(); got < 3 {
		t.Errorf("server saw %d hellos, want >= 3 (two rejected, one admitted)", got)
	}
}

// TestClientSurfacesBusyExhaustion: a server that never admits yields
// ErrServerBusy (distinguishable from unresponsiveness), and the
// hinted backoff keeps the failure fast.
func TestClientSurfacesBusyExhaustion(t *testing.T) {
	r := newScriptedResponder(t, func(h Header, nth int64) *Header {
		return busyReply(h, FlagAtCapacity, 5)
	})
	defer r.stop()

	c := NewClient(ClientConfig{
		Server:            r.addr(),
		duration:          10 * time.Second,
		handshakeAttempts: 3,
		HandshakeTimeout:  100 * time.Millisecond,
	})
	startAt := time.Now()
	_, err := c.Run()
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("error = %v, want ErrServerBusy", err)
	}
	if el := time.Since(startAt); el > 2*time.Second {
		t.Errorf("busy exhaustion took %v; hinted backoff should fail fast", el)
	}
}

// TestClientFailsFastOnDraining: a draining server is not worth
// retrying — the client must bail on the first Busy|FlagDraining.
func TestClientFailsFastOnDraining(t *testing.T) {
	r := newScriptedResponder(t, func(h Header, nth int64) *Header {
		return busyReply(h, FlagDraining, 0)
	})
	defer r.stop()

	c := NewClient(ClientConfig{
		Server:            r.addr(),
		duration:          10 * time.Second,
		handshakeAttempts: 5,
		HandshakeTimeout:  500 * time.Millisecond,
	})
	startAt := time.Now()
	_, err := c.Run()
	if !errors.Is(err, ErrServerDraining) {
		t.Fatalf("error = %v, want ErrServerDraining", err)
	}
	if el := time.Since(startAt); el > time.Second {
		t.Errorf("draining rejection took %v; must not burn the retry budget", el)
	}
	if got := r.hails.Load(); got != 1 {
		t.Errorf("server saw %d hellos, want 1 (no retry against a draining node)", got)
	}
}

// TestClientByeRetransmits: the fire-and-forget goodbye is sent
// multiple times so a single lost datagram does not leak the server's
// session slot until its TTL.
func TestClientByeRetransmits(t *testing.T) {
	r := newScriptedResponder(t, func(h Header, nth int64) *Header {
		return hiReply(h)
	})
	defer r.stop()

	c := NewClient(ClientConfig{
		Server:   r.addr(),
		duration: 200 * time.Millisecond,
		Nimbus:   nimbus.Config{Mu: 1e6, SlideInterval: 100 * time.Millisecond, WindowSamples: 32},
		Seed:     12,
		// byeRetransmits is 2 extra copies -> 3 on the wire.
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for r.byes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.byes.Load(); got != 3 {
		t.Errorf("server received %d Byes, want 3 (1 + 2 retransmits)", got)
	}
}

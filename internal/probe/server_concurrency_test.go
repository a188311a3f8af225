package probe

import (
	"context"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// dialHello dials the server and performs a busy-aware handshake,
// returning the conn and the reply header (zero Header on silence).
func dialHello(t *testing.T, addr string, session uint64) (*net.UDPConn, Header, bool) {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Type: TypeHello, Flags: FlagBusyAware, Session: session, SendNano: 1}
	buf := make([]byte, HeaderSize)
	h.Encode(buf)
	conn.Write(buf)
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	resp := make([]byte, 2048)
	n, err := conn.Read(resp)
	if err != nil {
		return conn, Header{}, false
	}
	reply, err := Decode(resp[:n])
	if err != nil {
		t.Fatalf("undecodable handshake reply: %v", err)
	}
	return conn, reply, true
}

// TestConcurrentAdmissionExactCap: many goroutines racing admitSession
// over overlapping ids must never over-admit past MaxSessions —
// admission is one critical section on the session table, so the cap
// is exact, not approximate.
func TestConcurrentAdmissionExactCap(t *testing.T) {
	const capN = 64
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxSessions: capN, SessionTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	// 8 goroutines all racing over the same 512 ids: duplicate
	// admissions (the release-slot path) and cap rejections both get
	// exercised.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Millisecond
			for id := uint64(1); id <= 512; id++ {
				if srv.admitSession(id, addr, now) == admitOK {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if got := srv.ActiveSessions(); got != capN {
		t.Errorf("active sessions = %d, want exactly %d", got, capN)
	}
	if got := srv.Stats.Sessions.Value(); got != capN {
		t.Errorf("sessions created = %d, want exactly %d", got, capN)
	}
	if got := len(srv.Sessions()); got != capN {
		t.Errorf("session table holds %d entries, want %d", got, capN)
	}
	// Re-admitting an existing id succeeds (refresh), so the admitted
	// count is at least one per goroutine per live id — but the table
	// itself never grew past the cap, which is what matters.
	if admitted.Load() < capN {
		t.Errorf("admitted %d < cap %d", admitted.Load(), capN)
	}
}

// TestAdmitEndSweepStress races admission, Bye and the TTL sweep over
// overlapping ids with a small cap and TTL, so sessions are evicted
// (by the background-style sweep and by the at-cap sweep) while others
// are admitted and ended. The table never holds more than the cap, and
// once quiescent the count, the table and the spool agree: every
// session created is either still tracked or spooled exactly once.
func TestAdmitEndSweepStress(t *testing.T) {
	const capN = 8
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: capN, SessionTTL: 20 * time.Millisecond, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	var wg sync.WaitGroup
	var over, rejected atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// One virtual millisecond per step: an id comes round
				// every 24 steps, past the 20ms TTL.
				now := time.Duration(i) * time.Millisecond
				id := uint64((i*7 + g) % 24)
				switch (i + g) % 4 {
				case 0, 1:
					if srv.admitSession(id, addr, now) != admitOK {
						rejected.Add(1)
					}
				case 2:
					srv.endSession(id, addr, now, EndBye)
				case 3:
					srv.sweepNow(now)
				}
				if srv.ActiveSessions() > capN {
					over.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := over.Load(); n > 0 {
		t.Errorf("active sessions exceeded the cap %d times", n)
	}
	active := srv.ActiveSessions()
	if got := len(srv.Sessions()); got != active {
		t.Errorf("ActiveSessions() = %d, table holds %d", active, got)
	}
	sink.mu.Lock()
	spooled := len(sink.recs)
	sink.mu.Unlock()
	if created := srv.Stats.Sessions.Value(); created != int64(spooled+active) {
		t.Errorf("created %d sessions, spooled %d + tracked %d", created, spooled, active)
	}
	if srv.Stats.Evicted.Value() == 0 || rejected.Load() == 0 {
		t.Errorf("evicted %d, rejected %d: the stress never reached the sweep or the cap",
			srv.Stats.Evicted.Value(), rejected.Load())
	}
}

// TestConcurrentReadersServeManyClients: a multi-reader server hammered
// by parallel clients on separate sockets. Under -race this is the
// regression test for the shared-reply-buffer hazard: every reader must
// use private read and reply memory.
func TestConcurrentReadersServeManyClients(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 256, SessionTTL: time.Hour, Readers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const clients = 24
	const packets = 40
	var wg sync.WaitGroup
	var acked atomic.Int64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			conn, reply, ok := dialHello(t, srv.Addr().String(), id)
			defer conn.Close()
			if !ok || reply.Type != TypeHi {
				errs <- &net.AddrError{Err: "handshake failed", Addr: srv.Addr().String()}
				return
			}
			out := make([]byte, 128)
			in := make([]byte, 2048)
			for seq := uint64(0); seq < packets; seq++ {
				h := Header{Type: TypeData, Session: id, Seq: seq, SendNano: int64(seq + 1)}
				h.Encode(out)
				conn.Write(out)
				conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				n, err := conn.Read(in)
				if err != nil {
					continue // loopback loss: tolerated, counted below
				}
				ack, err := Decode(in[:n])
				if err != nil {
					errs <- err
					return
				}
				// The ack must echo THIS session's fields — a reader
				// writing into a shared buffer would interleave sessions.
				if ack.Type != TypeAck || ack.Session != id || ack.EchoNano != int64(seq+1) {
					errs <- &net.AddrError{Err: "cross-session ack corruption", Addr: srv.Addr().String()}
					return
				}
				acked.Add(1)
			}
		}(uint64(1000 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if acked.Load() < clients*packets/2 {
		t.Errorf("only %d/%d acks on loopback", acked.Load(), clients*packets)
	}
	if got := srv.ActiveSessions(); got != clients {
		t.Errorf("active sessions = %d, want %d", got, clients)
	}
}

// TestByeFromAnotherAddressIgnored: a Bye carrying a session's id from
// any address but the one its Hello came from is counted as a bad
// packet and leaves the session running; the owner's Bye ends it.
func TestByeFromAnotherAddressIgnored(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	stranger := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, HeaderSize)
	send := func(typ uint8, from *net.UDPAddr) {
		h := Header{Type: typ, Flags: FlagBusyAware, Session: 42, SendNano: 1}
		h.Encode(pkt)
		srv.HandleDatagram(pkt, from, time.Millisecond, out)
	}

	send(TypeHello, owner)
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("active sessions after Hello = %d, want 1", got)
	}
	send(TypeBye, stranger)
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("a Bye from another address ended the session (active %d)", got)
	}
	if got := srv.Stats.BadPackets.Value(); got != 1 {
		t.Errorf("BadPackets = %d after a foreign Bye, want 1", got)
	}
	send(TypeBye, owner)
	if got := srv.ActiveSessions(); got != 0 {
		t.Fatalf("the owner's Bye left %d sessions active", got)
	}
	if got := sink.causes(); got[EndBye] != 1 || len(got) != 1 {
		t.Errorf("spooled end causes %v, want one %s", got, EndBye)
	}
	if got := srv.Stats.BadPackets.Value(); got != 1 {
		t.Errorf("BadPackets = %d after the owner's Bye, want 1", got)
	}
}

// TestDataFromAnotherAddressIgnored: a Data packet carrying a live
// session's id from any address but the one its Hello came from is a
// bad packet: it is not counted into the session's packets, bytes or
// spool record, and it is not acked.
func TestDataFromAnotherAddressIgnored(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	stranger := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, 200)
	send := func(typ uint8, from *net.UDPAddr) {
		h := Header{Type: typ, Session: 42, SendNano: 1}
		h.Encode(pkt)
		srv.HandleDatagram(pkt, from, time.Millisecond, out)
	}

	send(TypeHello, owner)
	send(TypeData, stranger)
	if s := srv.Sessions(); len(s) != 1 || s[0].Packets != 0 || s[0].Bytes != 0 {
		t.Fatalf("a Data from another address was counted into the session: %+v", s)
	}
	if d, a, b := srv.Stats.DataPackets.Value(), srv.Stats.Acks.Value(), srv.Stats.BadPackets.Value(); d != 0 || a != 0 || b != 1 {
		t.Errorf("after a foreign Data: DataPackets %d, Acks %d, BadPackets %d; want 0, 0, 1", d, a, b)
	}
	send(TypeData, owner)
	send(TypeBye, owner)
	if len(sink.recs) != 1 || sink.recs[0].Probe.Packets != 1 || sink.recs[0].Probe.Bytes != 200 {
		t.Fatalf("spooled %+v, want one record of the owner's one 200-byte packet", sink.recs)
	}
	if got := sink.recs[0].Probe.Addr; got != owner.String() {
		t.Errorf("spooled addr %q, want %q", got, owner.String())
	}
}

// TestHelloFromAnotherAddressDoesNotRefresh: a Hello for a live id from
// another address gets no Hi and does not refresh the session, so it
// cannot keep someone else's session alive past its TTL.
func TestHelloFromAnotherAddressDoesNotRefresh(t *testing.T) {
	const ttl = 100 * time.Millisecond
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", SessionTTL: ttl, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	stranger := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2), Port: 9998}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, HeaderSize)
	hello := func(from *net.UDPAddr, now time.Duration) {
		h := Header{Type: TypeHello, Session: 42, SendNano: 1}
		h.Encode(pkt)
		srv.HandleDatagram(pkt, from, now, out)
	}

	hello(owner, time.Millisecond)
	hello(stranger, ttl)
	if got := srv.Stats.BadPackets.Value(); got != 1 {
		t.Errorf("BadPackets = %d after a foreign Hello, want 1", got)
	}
	if got := srv.Stats.Sessions.Value(); got != 1 {
		t.Errorf("sessions created = %d, want 1", got)
	}
	srv.sweepNow(time.Millisecond + ttl + time.Millisecond)
	if got := srv.ActiveSessions(); got != 0 {
		t.Fatalf("a foreign Hello kept the session alive past its TTL (active %d)", got)
	}
	if got := sink.causes(); got[EndEvicted] != 1 {
		t.Errorf("spooled end causes %v, want one %s", got, EndEvicted)
	}
}

// TestDataWithoutHandshakeNotAcked: a Data packet for a session no
// Hello admitted creates no session and gets no ack.
func TestDataWithoutHandshakeNotAcked(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
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
	buf := make([]byte, 256)
	h := Header{Type: TypeData, Session: 7, Seq: 1, SendNano: 1000}
	h.Encode(buf)
	conn.Write(buf)
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("a Data without a handshake got a %d-byte reply, want none", n)
	}
	if got := srv.ActiveSessions(); got != 0 {
		t.Errorf("a Data without a handshake registered a session (active %d)", got)
	}
	if d, b := srv.Stats.DataPackets.Value(), srv.Stats.BadPackets.Value(); d != 0 || b != 1 {
		t.Errorf("DataPackets %d, BadPackets %d; want 0, 1", d, b)
	}
}

// TestStrangerDataSpendsNoGlobalToken: a Data from an address that
// does not own the session it names is a bad packet before it reaches
// the global limiter, so a stranger cannot drain the tokens the owner's
// Data draw on.
func TestStrangerDataSpendsNoGlobalToken(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", GlobalPPS: 10, GlobalBurst: 8, Sink: &memSink{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	stranger := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, 200)
	send := func(typ uint8, from *net.UDPAddr) {
		h := Header{Type: typ, Session: 42, SendNano: 1}
		h.Encode(pkt)
		srv.HandleDatagram(pkt, from, time.Millisecond, out)
	}

	send(TypeHello, owner)
	for i := 0; i < 10; i++ {
		send(TypeData, stranger)
	}
	if shed, bad := srv.Stats.ShedData.Value(), srv.Stats.BadPackets.Value(); shed != 0 || bad != 10 {
		t.Errorf("after ten foreign Data: ShedData %d, BadPackets %d; want 0, 10", shed, bad)
	}
	send(TypeData, owner)
	if a := srv.Stats.Acks.Value(); a != 1 {
		t.Errorf("the owner's Data after the stranger's got %d acks, want 1", a)
	}
}

// TestForgedSendStampsStayWithinSessionAge: a Data stamped at either
// int64 extreme, between honest ones, neither wraps the one-way-delay arithmetic nor leaves a
// queueing delay longer than the session in its spool record.
func TestForgedSendStampsStayWithinSessionAge(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, 200)
	now := time.Millisecond
	send := func(typ uint8, stamp int64) {
		h := Header{Type: typ, Session: 42, SendNano: stamp}
		h.Encode(pkt)
		srv.HandleDatagram(pkt, owner, now, out)
		now += time.Millisecond
	}

	send(TypeHello, 0)
	send(TypeData, 0)
	send(TypeData, math.MinInt64)
	send(TypeData, math.MaxInt64)
	send(TypeData, 0)
	send(TypeBye, 0)
	if len(sink.recs) != 1 {
		t.Fatalf("spooled %d records, want 1", len(sink.recs))
	}
	r := sink.recs[0]
	if r.Probe.Packets != 4 {
		t.Errorf("spooled %d packets, want 4: forged Data are counted", r.Probe.Packets)
	}
	if ms := r.Duration.Seconds() * 1e3; r.Probe.DelayMeanMs < 0 || r.Probe.DelayMeanMs > ms ||
		r.Probe.DelayMaxMs < 0 || r.Probe.DelayMaxMs > ms {
		t.Errorf("spooled delay mean %v ms, max %v ms over a %v ms session", r.Probe.DelayMeanMs, r.Probe.DelayMaxMs, ms)
	}
}

// TestDataPathDoesNotAllocate: counting and acking a Data packet,
// address check included, allocates nothing.
func TestDataPathDoesNotAllocate(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	owner := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9998}
	out := make([]byte, HeaderSize)
	pkt := make([]byte, 256)
	h := Header{Type: TypeHello, Session: 42, SendNano: 1}
	h.Encode(pkt)
	srv.HandleDatagram(pkt[:HeaderSize], owner, time.Millisecond, out)
	h.Type = TypeData
	h.Encode(pkt)
	if n := testing.AllocsPerRun(100, func() { srv.HandleDatagram(pkt, owner, time.Millisecond, out) }); n != 0 {
		t.Errorf("a Data packet allocates %.1f times, want 0", n)
	}
	if got := srv.Sessions()[0].Packets; got < 100 {
		t.Errorf("session counted %d packets, want every one", got)
	}
}

// TestOversizeDatagramRejected: a datagram longer than the Size field
// can describe is rejected and counted, never wrapped mod 2^16. (Real
// IPv4 UDP caps payloads below 65536, so this guards the direct path.)
func TestOversizeDatagramRejected(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	out := make([]byte, HeaderSize)

	pkt := make([]byte, MaxDatagram+1)
	hello := Header{Type: TypeHello, Session: 7, SendNano: 1}
	hello.Encode(pkt)
	srv.HandleDatagram(pkt[:HeaderSize], addr, time.Millisecond, out)
	h := Header{Type: TypeData, Session: 7, SendNano: 1}
	h.Encode(pkt)
	srv.HandleDatagram(pkt, addr, time.Millisecond, out)
	if got := srv.Stats.Oversize.Value(); got != 1 {
		t.Errorf("Oversize = %d, want 1", got)
	}
	if got := srv.Stats.BadPackets.Value(); got != 1 {
		t.Errorf("BadPackets = %d, want 1", got)
	}
	if s := srv.Sessions(); len(s) != 1 || s[0].Packets != 0 {
		t.Errorf("oversize datagram counted into the session: %+v", s)
	}

	// Exactly MaxDatagram is describable and must be processed.
	ok := Header{Type: TypeData, Session: 7, SendNano: 1}
	ok.Encode(pkt)
	srv.HandleDatagram(pkt[:MaxDatagram], addr, time.Millisecond, out)
	if got := srv.Stats.DataPackets.Value(); got != 1 {
		t.Errorf("boundary-size datagram not served (DataPackets = %d)", got)
	}
	if got := srv.Stats.Oversize.Value(); got != 1 {
		t.Errorf("boundary-size datagram miscounted as oversize")
	}
}

// TestTTLSweepUnderChurn: with a tiny TTL and a tiny cap, a stream of
// fresh sessions keeps being admitted as stale ones are swept — the
// table neither leaks nor wedges at the cap.
func TestTTLSweepUnderChurn(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 4, SessionTTL: 30 * time.Millisecond,
	})
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
	admitted := 0
	for id := uint64(1); id <= 40; id++ {
		h := Header{Type: TypeHello, Flags: FlagBusyAware, Session: id, SendNano: 1}
		h.Encode(buf)
		conn.Write(buf)
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if n, err := conn.Read(resp); err == nil {
			if reply, err := Decode(resp[:n]); err == nil && reply.Type == TypeHi {
				admitted++
			}
		}
		if got := srv.ActiveSessions(); got > 4 {
			t.Fatalf("active sessions = %d above cap 4 mid-churn", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Stats.Evicted.Value() == 0 {
		t.Error("no evictions despite 40 sessions churning through a cap of 4")
	}
	// With TTL 30ms and 10ms spacing the sweep keeps freeing slots, so
	// the large majority of hellos find room.
	if admitted < 20 {
		t.Errorf("only %d/40 hellos admitted under churn", admitted)
	}
}

// TestBusySignalingAtCapacity: at the session cap, a busy-aware Hello
// gets an explicit Busy reply carrying the cause bit and a retry hint,
// and so does a Hello without FlagBusyAware.
func TestBusySignalingAtCapacity(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 1, SessionTTL: time.Hour,
		BusyRetryHint: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c1, reply, ok := dialHello(t, srv.Addr().String(), 1)
	defer c1.Close()
	if !ok || reply.Type != TypeHi {
		t.Fatal("first session refused under the cap")
	}

	c2, reply, ok := dialHello(t, srv.Addr().String(), 2)
	defer c2.Close()
	if !ok {
		t.Fatal("busy-aware hello at capacity got silence, want Busy")
	}
	if reply.Type != TypeBusy {
		t.Fatalf("reply type = %d, want TypeBusy", reply.Type)
	}
	if reply.Flags&FlagAtCapacity == 0 {
		t.Errorf("Busy flags = %#x, missing FlagAtCapacity", reply.Flags)
	}
	if reply.Session != 2 {
		t.Errorf("Busy echoes session %d, want 2", reply.Session)
	}
	if reply.Size != 100 {
		t.Errorf("Busy retry hint = %dms, want 100", reply.Size)
	}

	// Without FlagBusyAware: the same Busy on the wire.
	raddr, _ := net.ResolveUDPAddr("udp", srv.Addr().String())
	c3, _ := net.DialUDP("udp", nil, raddr)
	defer c3.Close()
	h := Header{Type: TypeHello, Session: 3, SendNano: 1}
	buf := make([]byte, 2048)
	h.Encode(buf)
	c3.Write(buf[:HeaderSize])
	c3.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	n, err := c3.Read(buf)
	if err != nil {
		t.Fatalf("hello without FlagBusyAware at capacity got silence (%v), want Busy", err)
	}
	if reply, err := Decode(buf[:n]); err != nil || reply.Type != TypeBusy || reply.Flags&FlagAtCapacity == 0 {
		t.Fatalf("hello without FlagBusyAware at capacity got %+v (%v), want Busy|FlagAtCapacity", reply, err)
	}

	if srv.Stats.BusySent.Value() == 0 {
		t.Error("BusySent not counted")
	}
	if srv.Stats.Rejected.Value() < 2 {
		t.Errorf("Rejected = %d, want >= 2", srv.Stats.Rejected.Value())
	}
}

// TestPerSourceRateLimitSignalsBusy: a source blowing through its
// per-IP budget gets Busy|FlagRateLimited on the excess Hello.
func TestPerSourceRateLimitSignalsBusy(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 100, SessionTTL: time.Hour,
		PerSourcePPS: 1, PerSourceBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	for id := uint64(1); id <= 2; id++ {
		conn, reply, ok := dialHello(t, srv.Addr().String(), id)
		conn.Close()
		if !ok || reply.Type != TypeHi {
			t.Fatalf("hello %d refused within the burst", id)
		}
	}
	conn, reply, ok := dialHello(t, srv.Addr().String(), 3)
	conn.Close()
	if !ok {
		t.Fatal("rate-limited hello got silence, want Busy")
	}
	if reply.Type != TypeBusy || reply.Flags&FlagRateLimited == 0 {
		t.Fatalf("reply type %d flags %#x, want Busy|FlagRateLimited", reply.Type, reply.Flags)
	}
	if srv.Stats.RateLimited.Value() == 0 {
		t.Error("RateLimited not counted")
	}
	if got := srv.ActiveSessions(); got != 2 {
		t.Errorf("active sessions = %d, want the 2 under the burst", got)
	}
}

// TestGlobalCeilingShedsHellosBeforeData: once the global bucket drains
// to its reserve, new Hellos are shed while Data of admitted sessions
// keeps flowing — overload protects existing work first. Driven through
// HandleDatagram directly so the token arithmetic is deterministic.
func TestGlobalCeilingShedsHellosBeforeData(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 100, SessionTTL: time.Hour,
		GlobalPPS: 10, GlobalBurst: 8, // floor = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	now := time.Millisecond
	out := make([]byte, HeaderSize)

	// 6 Hellos drain the bucket to the reserve; the 7th is shed.
	for id := uint64(1); id <= 6; id++ {
		h := Header{Type: TypeHello, Session: id, SendNano: 1}
		srv.handleHello(&h, addr, now, out)
	}
	if got := srv.ActiveSessions(); got != 6 {
		t.Fatalf("admitted %d sessions above the reserve, want 6", got)
	}
	h7 := Header{Type: TypeHello, Session: 7, SendNano: 1}
	srv.handleHello(&h7, addr, now, out)
	if got := srv.Stats.ShedHello.Value(); got != 1 {
		t.Errorf("ShedHello = %d, want 1", got)
	}
	if got := srv.ActiveSessions(); got != 6 {
		t.Errorf("hello admitted from the reserve (active = %d)", got)
	}

	// The reserve still serves 2 Data packets of an admitted session,
	// then sheds.
	for seq := uint64(0); seq < 3; seq++ {
		d := Header{Type: TypeData, Session: 1, Seq: seq, SendNano: 1}
		srv.handleData(&d, addr, now, 100, out)
	}
	if got := srv.Stats.DataPackets.Value(); got != 2 {
		t.Errorf("DataPackets = %d, want the 2 reserve tokens", got)
	}
	if got := srv.Stats.ShedData.Value(); got != 1 {
		t.Errorf("ShedData = %d, want 1", got)
	}
}

// memSink collects spooled records in memory.
type memSink struct {
	mu   sync.Mutex
	recs []SessionRecord
}

func (m *memSink) Append(v any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, v.(SessionRecord))
	return nil
}

func (m *memSink) causes() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, r := range m.recs {
		out[r.Probe.EndCause]++
	}
	return out
}

// TestDrainServesAdmittedRejectsNew: during a drain, admitted sessions
// keep getting acks, new Hellos get Busy|FlagDraining, and Drain
// finalizes every remaining session into the sink with no summary lost.
func TestDrainServesAdmittedRejectsNew(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 8, SessionTTL: time.Hour, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	// Three sessions; one says Bye before the drain.
	conns := make([]*net.UDPConn, 3)
	for i := range conns {
		conn, reply, ok := dialHello(t, srv.Addr().String(), uint64(i+1))
		if !ok || reply.Type != TypeHi {
			t.Fatal("admission failed before drain")
		}
		conns[i] = conn
		defer conn.Close()
	}
	buf := make([]byte, HeaderSize)
	bye := Header{Type: TypeBye, Session: 1}
	bye.Encode(buf)
	conns[0].Write(buf)
	deadline := time.Now().Add(time.Second)
	for srv.ActiveSessions() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	srv.BeginDrain()

	// An admitted session is still served mid-drain.
	data := Header{Type: TypeData, Session: 2, Seq: 1, SendNano: 1}
	data.Encode(buf)
	conns[1].Write(buf)
	conns[1].SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	resp := make([]byte, 2048)
	n, err := conns[1].Read(resp)
	if err != nil {
		t.Fatal("admitted session not served during drain:", err)
	}
	if ack, err := Decode(resp[:n]); err != nil || ack.Type != TypeAck {
		t.Fatalf("mid-drain reply type %d, want TypeAck", ack.Type)
	}

	// A new Hello is turned away with the draining cause.
	conn, reply, ok := dialHello(t, srv.Addr().String(), 99)
	conn.Close()
	if !ok || reply.Type != TypeBusy || reply.Flags&FlagDraining == 0 {
		t.Fatalf("hello during drain: ok=%v type=%d flags=%#x, want Busy|FlagDraining", ok, reply.Type, reply.Flags)
	}
	if reply.Size != 0 {
		t.Errorf("draining Busy advertises retry-after %dms, want 0 (do not retry)", reply.Size)
	}
	if srv.Stats.DrainRejected.Value() == 0 {
		t.Error("DrainRejected not counted")
	}

	// The two live sessions never Bye: Drain hits the deadline and
	// force-finalizes them as drained.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	forced := srv.Drain(ctx)
	cancel()
	if forced != 2 {
		t.Errorf("Drain forced %d sessions, want 2", forced)
	}
	causes := sink.causes()
	if causes[EndBye] != 1 || causes[EndDrained] != 2 {
		t.Errorf("spooled causes = %v, want 1 bye + 2 drained", causes)
	}
	if got := srv.Stats.Drained.Value(); got != 2 {
		t.Errorf("Drained = %d, want 2", got)
	}
	if len(sink.recs) != 3 {
		t.Errorf("%d summaries spooled for 3 sessions", len(sink.recs))
	}
}

// TestCleanDrainReturnsZero: when every session says Bye, Drain
// completes before its deadline and forces nothing.
func TestCleanDrainReturnsZero(t *testing.T) {
	sink := &memSink{}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", MaxSessions: 8, SessionTTL: time.Hour, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	conn, reply, ok := dialHello(t, srv.Addr().String(), 1)
	defer conn.Close()
	if !ok || reply.Type != TypeHi {
		t.Fatal("admission failed")
	}
	srv.BeginDrain()
	buf := make([]byte, HeaderSize)
	bye := Header{Type: TypeBye, Session: 1}
	bye.Encode(buf)
	conn.Write(buf)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	forced := srv.Drain(ctx)
	cancel()
	if forced != 0 {
		t.Errorf("clean drain forced %d sessions, want 0", forced)
	}
	if causes := sink.causes(); causes[EndBye] != 1 {
		t.Errorf("spooled causes = %v, want 1 bye", causes)
	}
}

package probe

import (
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/nimbus"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Type:     TypeAck,
		Flags:    3,
		Session:  0xdeadbeefcafe,
		Seq:      42,
		SendNano: 123456789,
		EchoNano: 987654321,
		RecvNano: 555,
		Size:     1200,
	}
	buf := make([]byte, HeaderSize)
	n, err := h.Encode(buf)
	if err != nil || n != HeaderSize {
		t.Fatalf("encode: %v, n=%d", err, n)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

// Property: every header survives an encode/decode round trip.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(typ, flags uint8, session, seq uint64, send, echo, recv int64, size uint16) bool {
		h := Header{
			Type: typ, Flags: flags, Session: session, Seq: seq,
			SendNano: send, EchoNano: echo, RecvNano: recv, Size: size,
		}
		buf := make([]byte, HeaderSize)
		if _, err := h.Encode(buf); err != nil {
			return false
		}
		got, err := Decode(buf)
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, HeaderSize)
	if _, err := Decode(buf); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	h := Header{Type: TypeData}
	h.Encode(buf)
	buf[4] = 99
	if _, err := Decode(buf); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
}

func TestEncodeBufferTooSmall(t *testing.T) {
	h := Header{}
	if _, err := h.Encode(make([]byte, 5)); err == nil {
		t.Error("expected error for small buffer")
	}
}

func TestServerAcksDataPackets(t *testing.T) {
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

	buf := make([]byte, 1200)
	resp := make([]byte, 2048)
	hello := Header{Type: TypeHello, Session: 7, SendNano: 500}
	hello.Encode(buf)
	conn.Write(buf[:HeaderSize])
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(resp); err != nil {
		t.Fatal(err)
	} else if hi, err := Decode(resp[:n]); err != nil || hi.Type != TypeHi {
		t.Fatalf("hello answered with %+v (%v), want Hi", hi, err)
	}

	h := Header{Type: TypeData, Session: 7, Seq: 1, SendNano: 1000, Size: 1200}
	if _, err := h.Encode(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(resp)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := Decode(resp[:n])
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TypeAck || ack.Seq != 1 || ack.EchoNano != 1000 || ack.Session != 7 {
		t.Errorf("ack = %+v", ack)
	}
	if ack.Size != 1200 {
		t.Errorf("ack.Size = %d, want the data packet's wire size", ack.Size)
	}
	if srv.Stats.DataPackets.Value() != 1 || srv.Stats.Acks.Value() != 1 {
		t.Errorf("server stats: data=%d acks=%d",
			srv.Stats.DataPackets.Value(), srv.Stats.Acks.Value())
	}
}

func TestServerHandlesHelloAndGarbage(t *testing.T) {
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

	// Garbage is counted and ignored.
	conn.Write([]byte("not a probe packet"))

	buf := make([]byte, HeaderSize)
	h := Header{Type: TypeHello, Session: 9, SendNano: 5}
	h.Encode(buf)
	conn.Write(buf)

	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp := make([]byte, 2048)
	n, err := conn.Read(resp)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Decode(resp[:n])
	if err != nil || hi.Type != TypeHi || hi.EchoNano != 5 {
		t.Errorf("hi = %+v (%v)", hi, err)
	}
	// Allow the garbage counter a moment (same goroutine ordering).
	deadline := time.Now().Add(time.Second)
	for srv.Stats.BadPackets.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Stats.BadPackets.Value() != 1 {
		t.Errorf("bad packets = %d", srv.Stats.BadPackets.Value())
	}
	if srv.Stats.Sessions.Value() != 1 {
		t.Errorf("sessions = %d", srv.Stats.Sessions.Value())
	}
}

func TestClientMeasuresLoopback(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c := NewClient(ClientConfig{
		Server:   srv.Addr().String(),
		duration: 1500 * time.Millisecond,
		Nimbus:   nimbus.Config{Mu: 5e6, SlideInterval: 250 * time.Millisecond, WindowSamples: 64},
		Seed:     1,
	})
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("client sent nothing")
	}
	if rep.Acked == 0 {
		t.Fatal("client received no acks")
	}
	if rep.LossRate > 0.5 {
		t.Errorf("loopback loss = %.2f", rep.LossRate)
	}
	if rep.MinRTT <= 0 || rep.MinRTT > 200*time.Millisecond {
		t.Errorf("loopback minRTT = %v", rep.MinRTT)
	}
	if rep.ThroughputBps <= 0 {
		t.Error("no throughput recorded")
	}
	// An idle loopback path should not look elastic.
	if rep.Elastic {
		t.Errorf("loopback classified elastic (eta=%.3f)", rep.MeanEta)
	}
}

// TestReportVerdictIsSharedSummary: the client's Elastic/MeanEta/Windows
// are the estimator's shared verdict over [Duration/4, inf) of the very
// Eta series it reports — the sample on the settle bound counts, the one
// before it does not.
func TestReportVerdictIsSharedSummary(t *testing.T) {
	const duration = 8 * time.Second
	c := NewClient(ClientConfig{Server: "unused", duration: duration, Seed: 1})
	const th = nimbus.EtaThreshold
	for i, eta := range []float64{9, 9, th, 0, 2 * th, 0.1} { // at 1s, 2s (the bound), 3s, ...
		c.cc.Est.Elasticity.Append(time.Duration(i+1)*time.Second, eta)
	}
	c.p.Ended = duration
	rep := c.Report()

	ref := nimbus.NewEstimator(c.cfg.Nimbus)
	for _, s := range c.cc.Est.Elasticity.Samples() {
		ref.Elasticity.Append(s.At, s.Value)
	}
	want := ref.Verdict(duration/4, math.MaxInt64)
	if want.Windows != 5 || !want.Elastic {
		t.Fatalf("reference verdict %+v: want the 5 windows from 2 s on, elastic 3 to 2", want)
	}
	if rep.Windows != want.Windows || rep.MeanEta != want.Mean || rep.Elastic != want.Elastic {
		t.Errorf("report windows=%d mean=%v elastic=%v, shared verdict %+v",
			rep.Windows, rep.MeanEta, rep.Elastic, want)
	}
}

func TestClientBadServerAddress(t *testing.T) {
	c := NewClient(ClientConfig{Server: "this is not an address"})
	if _, err := c.Run(); err == nil {
		t.Error("expected resolve error")
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

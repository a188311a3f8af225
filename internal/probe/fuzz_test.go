package probe

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/mlab"
	"repro/internal/nimbus"
)

// fuzzSources are the senders FuzzServerDatagrams draws from. The first
// two are one source, in the 4-byte form and in the 16-byte (4-in-6)
// form a dual-stack socket reports: the server must treat them alike.
var fuzzSources = []*net.UDPAddr{
	{IP: net.IPv4(127, 0, 0, 1).To4(), Port: 4001},
	{IP: net.IPv4(127, 0, 0, 1), Port: 4001},
	{IP: net.IPv4(127, 0, 0, 1), Port: 4002},
	{IP: net.IPv6loopback, Port: 4001},
}

var fuzzSessions = []uint64{1, 2, 3, math.MaxUint64}

// fuzzOtherTypes are decodable types no server handles.
var fuzzOtherTypes = []uint8{TypeAck, TypeHi, TypeBusy, 0, TypeBusy + 1}

// Operation kinds, the low three bits of an operation's first byte.
const (
	opHello = iota
	opData
	opData2
	opBye
	opSweep
	opOtherType
	opGarbage
	opOversize
)

// opBusyAware, the top bit of an operation's first byte, sets
// FlagBusyAware.
const opBusyAware = 0x80

// fuzzOp encodes one FuzzServerDatagrams operation.
func fuzzOp(kind, src, sess int, advanceMs, seq, payload, send byte) []byte {
	return []byte{byte(kind) | byte(src)<<3 | byte(sess)<<5, advanceMs, seq, payload, send}
}

// FuzzServerDatagrams drives one server through datagrams and sweeps
// decoded from the input, five bytes an operation: the kind, source
// index and session index (3, 2 and 2 bits, the top bit sets
// FlagBusyAware), virtual milliseconds to advance the clock, the seq,
// the Data payload length, and how far below the clock SendNano lies
// (254 and 255 are the int64 extremes). A model tracks which source
// admitted each live session and how many Data it sent. After every
// operation: the table never exceeds MaxSessions; created == spooled +
// tracked and the table holds exactly the model's sessions; a Data or
// Hello from a foreign source, a Data for an unknown id and a datagram
// of no session type change no session; each spooled record counts
// exactly the Data its admitting source sent, keeps its queueing delays
// within its own age, encodes, and reads back through mlab's
// decoder.
func FuzzServerDatagrams(f *testing.F) {
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(cat( // the handshaking client, and a stranger naming its id
		fuzzOp(opHello, 0, 0, 1, 0, 0, 1),
		fuzzOp(opData, 0, 0, 1, 1, 100, 1),
		fuzzOp(opData, 2, 0, 1, 2, 100, 1),
		fuzzOp(opHello, 3, 0, 1, 3, 0, 1),
		fuzzOp(opData2, 0, 0, 30, 4, 200, 3),
		fuzzOp(opBye, 2, 0, 1, 5, 0, 1),
		fuzzOp(opBye, 0, 0, 1, 6, 0, 1),
	))
	f.Add(cat( // no handshake
		fuzzOp(opData, 0, 1, 1, 0, 0, 1),
		fuzzOp(opBye, 0, 1, 1, 1, 0, 1),
		fuzzOp(opData, 1, 2, 1, 2, 8, 1),
	))
	f.Add(cat( // the cap, the at-cap sweep and the background sweep
		fuzzOp(opHello, 0, 0, 1, 0, 0, 1),
		fuzzOp(opHello, 2, 1, 1, 0, 0, 1),
		fuzzOp(opHello, 3, 2, 1, 0, 0, 1),
		fuzzOp(opData, 2, 1, 40, 1, 64, 5),
		fuzzOp(opHello, 3, 2, 40, 1, 0, 1),
		fuzzOp(opSweep, 0, 0, 100, 0, 0, 0),
		fuzzOp(opHello, 3, 3, 1, 0, 0, 1),
	))
	f.Add(cat( // one IPv4 source in both forms
		fuzzOp(opHello, 0, 3, 1, 0, 0, 1),
		fuzzOp(opData, 1, 3, 1, 1, 10, 1),
		fuzzOp(opHello, 1, 3, 1, 2, 0, 1),
		fuzzOp(opBye, 1, 3, 1, 3, 0, 1),
	))
	f.Add(cat( // datagrams of no session type, and SendNano extremes
		fuzzOp(opHello|opBusyAware, 2, 0, 1, 0, 0, 1),
		fuzzOp(opOversize, 2, 0, 1, 1, 0, 1),
		fuzzOp(opGarbage, 2, 0, 1, 2, 0, 1),
		fuzzOp(opOtherType, 2, 0, 1, 3, 0, 1),
		fuzzOp(opData, 2, 0, 1, 4, 0, 255),
		fuzzOp(opData, 2, 0, 30, 5, 0, 254),
		fuzzOp(opData, 2, 0, 30, 6, 0, 0),
	))

	f.Fuzz(func(t *testing.T, ops []byte) {
		const capN, ttl = 2, 64 * time.Millisecond
		sink := &memSink{}
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", MaxSessions: capN, SessionTTL: ttl,
			SnapshotInterval: 20 * time.Millisecond, Sink: sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The checks read state, not the wire: with the socket closed a
		// reply fails without leaving the process.
		srv.conn.Close()

		type owner struct {
			addr  string
			data  int64
			start time.Duration
		}
		live := map[uint64]*owner{}
		spooled := 0
		var now time.Duration // the virtual clock the operations advance
		snapshot := func() map[uint64]session {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			out := make(map[uint64]session, len(srv.sessions))
			for id, se := range srv.sessions {
				out[id] = *se
			}
			return out
		}
		// settle checks the records spooled since the last call against
		// the model, then the table against the model.
		settle := func(step int) {
			sink.mu.Lock()
			recs := append([]SessionRecord(nil), sink.recs[spooled:]...)
			sink.mu.Unlock()
			spooled += len(recs)
			for _, r := range recs {
				id, err := strconv.ParseUint(r.Probe.Session, 16, 64)
				if err != nil {
					t.Fatalf("step %d: spooled session %q: %v", step, r.Probe.Session, err)
				}
				o := live[id]
				if o == nil {
					t.Fatalf("step %d: spooled session %x the model holds no record of", step, id)
				}
				if r.Probe.Addr != o.addr || r.Probe.Packets != o.data {
					t.Fatalf("step %d: session %x spooled addr %s, %d packets; its source %s sent %d",
						step, id, r.Probe.Addr, r.Probe.Packets, o.addr, o.data)
				}
				// Close spools on the wall clock, so the session's age is
				// bounded on the virtual one.
				if ms := (now - o.start).Seconds() * 1e3; r.Probe.DelayMeanMs < 0 || r.Probe.DelayMeanMs > ms ||
					r.Probe.DelayMaxMs < 0 || r.Probe.DelayMaxMs > ms {
					t.Fatalf("step %d: session %x spooled delay mean %v ms, max %v ms; it is %v ms old",
						step, id, r.Probe.DelayMeanMs, r.Probe.DelayMaxMs, ms)
				}
				delete(live, id)
				line, err := json.Marshal(r)
				if err != nil {
					t.Fatalf("step %d: encoding session %x: %v", step, id, err)
				}
				src, err := mlab.NewRecordStream(bytes.NewReader(line), mlab.StreamLimits{})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				var rec mlab.Record
				if err := src.Next(&rec); err != nil || rec.ID != r.ID {
					t.Fatalf("step %d: mlab reads back %q (%v) from %s", step, rec.ID, err, line)
				}
			}
			tab := snapshot()
			if len(tab) > capN {
				t.Fatalf("step %d: %d sessions above the cap %d", step, len(tab), capN)
			}
			if created := srv.Stats.Sessions.Value(); created != int64(spooled+len(tab)) {
				t.Fatalf("step %d: created %d, spooled %d + tracked %d", step, created, spooled, len(tab))
			}
			for id, se := range tab {
				if o := live[id]; o == nil || o.addr != se.addr || o.data != se.packets {
					t.Fatalf("step %d: session %x from %s with %d packets; model %+v", step, id, se.addr, se.packets, o)
				}
			}
			if len(tab) != len(live) {
				t.Fatalf("step %d: table holds %d sessions, model %d", step, len(tab), len(live))
			}
		}

		out := make([]byte, HeaderSize)
		pkt := make([]byte, MaxDatagram+1)
		for step := 0; len(ops) >= 5; step++ {
			op := ops[:5]
			ops = ops[5:]
			kind := int(op[0] & 7)
			from := fuzzSources[op[0]>>3&3]
			id := fuzzSessions[op[0]>>5&3]
			now += time.Duration(op[1]) * time.Millisecond
			h := Header{Session: id, Seq: uint64(op[2]), Flags: (op[0] >> 7) * FlagBusyAware}
			switch op[4] {
			case 255:
				h.SendNano = math.MinInt64
			case 254:
				h.SendNano = math.MaxInt64
			default:
				h.SendNano = now.Nanoseconds() - int64(op[4])*int64(time.Millisecond)
			}
			n := HeaderSize
			switch kind {
			case opHello:
				h.Type = TypeHello
			case opData, opData2:
				h.Type, n = TypeData, HeaderSize+int(op[3])
			case opBye:
				h.Type = TypeBye
			case opOtherType:
				h.Type = fuzzOtherTypes[int(op[3])%len(fuzzOtherTypes)]
			case opOversize:
				h.Type, n = TypeData, MaxDatagram+1
			}
			h.Encode(pkt)
			if kind == opGarbage {
				pkt[0] ^= 0xff
			}

			before := snapshot()
			bad := srv.Stats.BadPackets.Value()
			acks := srv.Stats.Acks.Value()
			if kind == opSweep {
				srv.sweepNow(now)
			} else {
				srv.HandleDatagram(pkt[:n], from, now, out)
			}
			after := snapshot()
			o := live[id]
			mine := o != nil && o.addr == from.String()
			unchanged := func(what string) {
				if prev, ok := before[id]; ok && !reflect.DeepEqual(prev, after[id]) {
					t.Fatalf("step %d: %s changed session %x", step, what, id)
				}
				if _, ok := after[id]; ok != (o != nil) {
					t.Fatalf("step %d: %s added or removed session %x", step, what, id)
				}
				if got := srv.Stats.BadPackets.Value(); got != bad+1 {
					t.Fatalf("step %d: %s counted %d bad packets, want 1", step, what, got-bad)
				}
			}
			switch {
			case kind == opSweep:
				for sid, se := range after {
					if now-se.last > ttl {
						t.Fatalf("step %d: the sweep left session %x idle %v", step, sid, now-se.last)
					}
				}
			case kind == opHello && o != nil && !mine:
				unchanged("a foreign Hello")
			case kind == opHello:
				if se, ok := after[id]; ok && o == nil {
					if se.addr != from.String() || se.start != now {
						t.Fatalf("step %d: admitted session %x from %s at %v, Hello from %s at %v",
							step, id, se.addr, se.start, from, now)
					}
					live[id] = &owner{addr: se.addr, start: now}
				} else if ok && se.last != now {
					t.Fatalf("step %d: the owner's Hello did not refresh session %x", step, id)
				}
			case (kind == opData || kind == opData2) && mine:
				if after[id].packets != before[id].packets+1 || srv.Stats.Acks.Value() != acks+1 {
					t.Fatalf("step %d: the owner's Data was not counted and acked", step)
				}
				o.data++
			case kind == opData || kind == opData2:
				unchanged("a foreign or handshake-less Data")
				if srv.Stats.Acks.Value() != acks {
					t.Fatalf("step %d: a foreign or handshake-less Data was acked", step)
				}
			case kind == opBye && o != nil && !mine:
				unchanged("a foreign Bye")
			case kind == opBye:
				if _, ok := after[id]; ok {
					t.Fatalf("step %d: the owner's Bye left session %x", step, id)
				}
			default:
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("step %d: a datagram of kind %d changed the table", step, kind)
				}
				if got := srv.Stats.BadPackets.Value(); got != bad+1 {
					t.Fatalf("step %d: a datagram of kind %d counted %d bad packets, want 1", step, kind, got-bad)
				}
			}
			settle(step)
		}
		srv.Close()
		settle(-1)
		if len(live) != 0 {
			t.Fatalf("Close left %d sessions unspooled", len(live))
		}
	})
}

// FuzzClientAcks drives a client's session on a virtual clock: after a
// clean handshake it delivers datagrams decoded from the input, three
// bytes an operation: the kind (low three bits), milliseconds to
// advance the clock first, and a selector. Kinds 0 and 1 ack the sent
// packet the selector picks, so a repeated pick duplicates an ack and a
// smaller one reorders it; the others send that ack for another
// session, truncated, with a forged echo (the int64 extremes among
// them), for a packet never sent, as a stray Hi or Busy, or with its
// echo shifted by the selector's milliseconds. After every operation:
// every RTT fed to the controller, and its smoothed and minimum RTT,
// lie in (0, session age]; no more packets are acked than sent. At the
// end the report's Sent counts the data packets sent, Acked ≤ Sent,
// and LossRate and Confidence lie in [0, 1].
func FuzzClientAcks(f *testing.F) {
	f.Add([]byte{0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 30, 5, 1, 0, 2, 2, 0, 1, 3, 1, 40, 4, 0, 1, 5, 0, 0, 6, 1, 1, 7, 0, 3, 0, 200, 1})
	f.Add([]byte{4, 10, 0, 4, 0, 1, 4, 0, 2, 4, 0, 3, 4, 0, 4, 4, 0, 5, 4, 0, 6, 0, 255, 9, 0, 255, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewClient(ClientConfig{
			Server:   "virtual",
			Seed:     1,
			duration: time.Second,
			Nimbus:   nimbus.Config{Mu: 2e6, SlideInterval: 100 * time.Millisecond, WindowSamples: 32},
		})
		p := c.Session()
		var sent []Header // the data packets, as sent
		var hello Header
		p.Send = func(b []byte) error {
			h, err := Decode(b)
			if err != nil {
				t.Fatalf("the session sent an undecodable datagram: %v", err)
			}
			switch h.Type {
			case TypeData:
				sent = append(sent, h)
			case TypeHello:
				hello = h
			}
			return nil
		}
		var now time.Duration
		advance := func(to time.Duration) {
			for !p.Done() && p.Next() <= to {
				now = max(now, p.Next())
				p.Wake(now)
			}
			now = max(now, to)
		}
		ack := p.Ack
		p.Ack = func(at, rtt time.Duration) {
			if rtt <= 0 || rtt > at {
				t.Fatalf("rtt %v fed to the controller at session age %v", rtt, at)
			}
			ack(at, rtt)
			if s, m := c.rtt.SRTT, c.rtt.Min; s <= 0 || s > at || m <= 0 || m > at {
				t.Fatalf("srtt %v, min rtt %v fed to the controller at session age %v", s, m, at)
			}
		}
		buf := make([]byte, HeaderSize)
		deliver := func(h Header, n int) {
			h.Encode(buf)
			p.Receive(buf[:n], now)
		}
		advance(10 * time.Millisecond)
		deliver(Header{Type: TypeHi, Session: p.Session, EchoNano: hello.SendNano}, HeaderSize)
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			advance(now + time.Duration(ops[1])*time.Millisecond)
			sel := ops[2]
			h, n := Header{Type: TypeAck, Session: p.Session, Size: clientPacketSize}, HeaderSize
			if len(sent) > 0 {
				s := sent[int(sel)%len(sent)]
				h.Seq, h.EchoNano = s.Seq, s.SendNano
			}
			switch ops[0] & 7 {
			case 2:
				h.Session++
			case 3:
				n = int(sel) % HeaderSize
			case 4:
				h.EchoNano = []int64{math.MinInt64, math.MaxInt64, -1, 0, int64(now), int64(now) + 1, int64(now) - 1}[int(sel)%7]
			case 5:
				h.Seq = []uint64{uint64(len(sent)), uint64(len(sent)) + uint64(sel), math.MaxUint64}[int(sel)%3]
			case 6:
				h.Type = []uint8{TypeHi, TypeBusy}[sel%2]
			case 7:
				h.EchoNano -= int64(sel) * int64(time.Millisecond)
			}
			deliver(h, n)
			if c.acked > c.sent {
				t.Fatalf("step %d: %d packets acked of %d sent", step, c.acked, c.sent)
			}
		}
		advance(math.MaxInt64)
		rep := c.Report()
		if rep.Sent != int64(len(sent)) || rep.Acked > rep.Sent {
			t.Fatalf("report sent %d acked %d; %d data packets went out", rep.Sent, rep.Acked, len(sent))
		}
		if !(rep.LossRate >= 0 && rep.LossRate <= 1 && rep.Confidence >= 0 && rep.Confidence <= 1) {
			t.Fatalf("loss rate %v, confidence %v outside [0, 1]", rep.LossRate, rep.Confidence)
		}
	})
}

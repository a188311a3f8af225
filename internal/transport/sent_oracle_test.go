package transport

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// oracleLedger is the reference the sender's sent-packet ring is fuzzed
// against: the same bookkeeping written the obvious way. A map holds
// the outstanding packets and a slice their seqs in send order; every
// ack walks the slice from the front, declares what lies below the
// packet-threshold cut lost, and compacts the settled prefix away.
type oracleLedger struct {
	openLoop bool

	inflight      map[int64]int // seq -> size
	order         []int64
	nextSeq       int64
	largestAcked  int64
	recoveryUntil int64
	inflightBytes int
	bytesAcked    int64
	lostPackets   int64
	lossEvents    int64
	retxOwed      int64
	lost          []int64 // every seq declared lost, in order
}

func newOracleLedger(openLoop bool) *oracleLedger {
	return &oracleLedger{openLoop: openLoop, inflight: make(map[int64]int)}
}

func (o *oracleLedger) send(seq int64, size int, retx bool) error {
	if seq != o.nextSeq {
		return fmt.Errorf("sent seq %d, oracle expects %d", seq, o.nextSeq)
	}
	if want := o.retxOwed > 0; retx != want {
		return fmt.Errorf("seq %d sent with retx=%v, oracle owes %d bytes", seq, retx, o.retxOwed)
	}
	if retx {
		o.retxOwed = max(o.retxOwed-int64(size), 0)
	}
	o.nextSeq++
	o.inflight[seq] = size
	o.order = append(o.order, seq)
	o.inflightBytes += size
	return nil
}

func (o *oracleLedger) ack(seq int64) {
	size, ok := o.inflight[seq]
	if !ok {
		return
	}
	delete(o.inflight, seq)
	o.inflightBytes -= size
	o.bytesAcked += int64(size)
	o.largestAcked = max(o.largestAcked, seq)
	cut := o.largestAcked - lossReorderThreshold
	for _, seq := range o.order {
		size, ok := o.inflight[seq]
		if !ok {
			continue
		}
		if seq >= cut {
			break
		}
		o.declareLost(seq, size)
	}
	j := 0
	for j < len(o.order) {
		if _, ok := o.inflight[o.order[j]]; ok {
			break
		}
		j++
	}
	o.order = append(o.order[:0], o.order[j:]...)
}

func (o *oracleLedger) declareLost(seq int64, size int) {
	delete(o.inflight, seq)
	o.inflightBytes -= size
	o.lostPackets++
	o.lost = append(o.lost, seq)
	if !o.openLoop {
		o.retxOwed += int64(size)
	}
	if seq >= o.recoveryUntil {
		o.recoveryUntil = o.nextSeq
		o.lossEvents++
	}
}

func (o *oracleLedger) rto() {
	if len(o.inflight) == 0 {
		return
	}
	for _, size := range o.inflight {
		o.lostPackets++
		if !o.openLoop {
			o.retxOwed += int64(size)
		}
	}
	o.inflight = make(map[int64]int)
	o.order = o.order[:0]
	o.inflightBytes = 0
	o.recoveryUntil = o.nextSeq
	o.lossEvents++
}

// outstanding returns the oracle's outstanding seqs in send order.
func (o *oracleLedger) outstanding() []int64 {
	var seqs []int64
	for _, seq := range o.order {
		if _, ok := o.inflight[seq]; ok {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// outstandingSeqs returns the sender's outstanding seqs in send order.
func (s *Sender) outstandingSeqs() []int64 {
	var seqs []int64
	for seq := s.base; seq < s.nextSeq; seq++ {
		if s.sent(seq) != nil {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// verifyRing checks the ring's structure: a power-of-two length that
// covers [base, nextSeq), and a live count and byte total that match
// its live slots.
func (s *Sender) verifyRing() error {
	if n := len(s.ring); n > 0 && n&(n-1) != 0 {
		return fmt.Errorf("ring length %d is not a power of two", n)
	}
	if span := s.nextSeq - s.base; span < 0 || span > int64(len(s.ring)) {
		return fmt.Errorf("span [%d, %d) does not fit %d slots", s.base, s.nextSeq, len(s.ring))
	}
	live, bytes := 0, 0
	for seq := s.base; seq < s.nextSeq; seq++ {
		if e := s.slot(seq); e.live {
			live++
			bytes += e.size
		}
	}
	if live != s.outstanding || bytes != s.inflightBytes {
		return fmt.Errorf("%d live slots holding %d bytes, counters say %d / %d", live, bytes, s.outstanding, s.inflightBytes)
	}
	return nil
}

// miniReno is Reno in miniature for tests that cannot import cca (it
// imports this package): slow start to ssthresh, then one MSS per
// window of acks; a loss epoch halves the window, a timeout resets it
// to one MSS.
type miniReno struct{ cwnd, ssthresh int }

func (c *miniReno) OnAck(a AckInfo) {
	if c.cwnd < c.ssthresh {
		c.cwnd += a.AckedBytes
	} else {
		c.cwnd += sim.MSS * a.AckedBytes / c.cwnd
	}
}

func (c *miniReno) OnLoss(LossInfo) {
	c.ssthresh = max(c.cwnd/2, 2*sim.MSS)
	c.cwnd = c.ssthresh
}

func (c *miniReno) OnTimeout(time.Duration) {
	c.ssthresh = max(c.cwnd/2, 2*sim.MSS)
	c.cwnd = sim.MSS
}

func (c *miniReno) CWnd() int         { return c.cwnd }
func (*miniReno) PacingRate() float64 { return 0 }

// eventLog keeps every event the sender emits.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Emit(ev obs.Event) { l.evs = append(l.evs, ev) }

// newBareSender returns a sender on eng whose data packets are released
// on the spot, so the only acks it sees are the ones a test hands to
// Receive.
func newBareSender(eng *sim.Engine, cc CCA, cfg FlowConfig) (*Sender, *eventLog) {
	log := &eventLog{}
	cfg.ID, cfg.CC, cfg.Trace = 1, cc, log
	s := NewFlow(eng, cfg).Sender
	s.dest = sim.ReceiverFunc(func(p *sim.Packet) { p.Release() })
	return s, log
}

// ackSeq hands the sender an acknowledgment for seq.
func ackSeq(s *Sender, seq int64) {
	p := s.eng.NewPacket()
	p.Ack = true
	p.Seq = seq
	p.Size = ackSize
	s.Receive(p)
}

// FuzzSenderLedger drives the sender and the map-and-slice oracle with
// the same operation tape — supplying data, acknowledging the oldest
// outstanding packet, a later one (reordering), or any recent seq
// (a duplicate, one already declared lost, one sent before a timeout),
// firing the retransmission timer, and resizing the window — and
// requires, after every operation, the same outstanding seqs, the same
// inflight bytes, lost packets, loss events, retransmission debt and
// acked bytes, and the same seqs declared lost in the same order. The
// sender's own sends are mirrored into the oracle from its trace. The
// first byte picks open- or closed-loop, backlogged or supplied, and
// the starting window; the rest is (opcode, argument) byte pairs.
func FuzzSenderLedger(f *testing.F) {
	// In-order acks through slow start, then a 64-packet window: the ring
	// doubles 16 -> 128, the last time with base past zero, so the
	// re-homing wraps.
	f.Add([]byte{7<<2 | 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 4, 63, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	// A hole: four later packets acked declare seq 0 lost, then its ack arrives late.
	f.Add([]byte{7 << 2, 0, 119, 1, 1, 1, 1, 1, 1, 1, 1, 2, 8, 1, 0, 1, 0, 1, 0})
	// A timeout with a window outstanding, then acks for pre-timeout seqs.
	f.Add([]byte{3<<2 | 2, 3, 0, 2, 2, 1, 0, 2, 1, 2, 3, 1, 0, 1, 0})
	// Open loop: lost bytes are forgotten, never owed; then a timeout.
	f.Add([]byte{3<<2 | 1, 0, 89, 1, 1, 1, 1, 1, 1, 1, 1, 3, 0, 2, 3, 1, 0, 1, 0})
	// Window resized between bursts of reordered acks, a timeout, duplicates.
	f.Add([]byte{2, 4, 31, 0, 90, 1, 3, 1, 2, 2, 0, 2, 0, 4, 1, 1, 0, 1, 4, 0, 200, 1, 1, 3, 0, 1, 0, 4, 0, 2, 0, 2, 0, 2, 40, 2, 50, 2, 30, 2, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1024 {
			data = data[:1024] // ~500 ops
		}
		openLoop, backlogged := data[0]&1 != 0, data[0]&2 != 0
		cc := &miniReno{cwnd: (1 + int(data[0]>>2)%8) * sim.MSS, ssthresh: 16 * sim.MSS}
		s, log := newBareSender(&sim.Engine{}, cc, FlowConfig{OpenLoop: openLoop, Backlogged: backlogged})
		o := newOracleLedger(openLoop)
		var lost []int64
		// mirror feeds the sends the sender made since the last call to
		// the oracle and collects the seqs it declared lost.
		mirror := func(ctx string) {
			for _, ev := range log.evs {
				switch ev.Type {
				case obs.EvSend:
					if err := o.send(ev.Seq, int(ev.V1), ev.Note == "retx"); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
				case obs.EvLoss:
					lost = append(lost, ev.Seq)
				}
			}
			log.evs = log.evs[:0]
		}
		mirror("start") // a backlogged flow sends its first window at construction
		for i := 1; i < len(data); i += 2 {
			op, arg := data[i], byte(0)
			if i+1 < len(data) {
				arg = data[i+1]
			}
			ctx := fmt.Sprintf("op %d (%d,%d) base %d next %d", i/2, op, arg, s.base, s.nextSeq)
			switch op % 5 {
			case 0: // supply: 100 B to ~25 kB, often not a whole number of packets
				s.Supply(100 * (int64(arg) + 1))
			case 1: // ack the arg-th outstanding packet (0: in order; later: reordered)
				if out := o.outstanding(); len(out) > 0 {
					seq := out[int(arg)%len(out)]
					o.ack(seq)
					ackSeq(s, seq)
				}
			case 2: // ack any recent seq: outstanding, duplicate, lost, or pre-timeout
				if seq := o.nextSeq - 1 - int64(arg%64); seq >= 0 {
					o.ack(seq)
					ackSeq(s, seq)
				}
			case 3: // retransmission timeout
				o.rto()
				s.onRTO()
			case 4: // resize the window, 1-64 packets
				cc.cwnd = (1 + int(arg)%64) * sim.MSS
			}
			mirror(ctx)
			if err := s.verifyRing(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if got, want := s.outstandingSeqs(), o.outstanding(); !slices.Equal(got, want) {
				t.Fatalf("%s: outstanding %v, oracle %v", ctx, got, want)
			}
			if !slices.Equal(lost, o.lost) {
				t.Fatalf("%s: declared lost %v, oracle %v", ctx, lost, o.lost)
			}
			got := [5]int64{int64(s.inflightBytes), s.lostPackets, s.lossEvents, s.retxOwed, s.bytesAcked}
			want := [5]int64{int64(o.inflightBytes), o.lostPackets, o.lossEvents, o.retxOwed, o.bytesAcked}
			if got != want {
				t.Fatalf("%s: inflight/lost/loss events/retx owed/acked %v, oracle %v", ctx, got, want)
			}
		}
	})
}

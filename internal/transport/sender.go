package transport

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpinfo"
)

// Packet-threshold loss detection: a packet is declared lost once this
// many later packets have been acknowledged (QUIC's kPacketThreshold).
const lossReorderThreshold = 3

// ackSize is the wire size of an acknowledgment in bytes.
const ackSize = 40

// minRTO is the lower bound on the retransmission timeout.
const minRTO = 200 * time.Millisecond

type sentInfo struct {
	size            int
	sentAt          time.Duration
	deliveredAtSend int64
	live            bool // sent, and neither acknowledged nor declared lost
}

// mark is one watched instant: once an ack arrives after at, value
// holds the bytes acknowledged at or before at.
type mark struct {
	at    time.Duration
	value int64
	done  bool
}

// noMark is nextDue while every mark is resolved.
const noMark = time.Duration(math.MaxInt64)

type limitState int

const (
	stBusy limitState = iota
	stAppLimited
)

func (st limitState) String() string {
	if st == stAppLimited {
		return "app_limited"
	}
	return "busy"
}

// Sender is the transmitting endpoint of a Flow. It owns sequencing,
// pacing, loss detection, and congestion-controller callbacks. Create
// senders through NewFlow.
type Sender struct {
	eng    *sim.Engine
	flowID int
	userID int
	path   []*sim.Link
	dest   sim.Receiver // the flow's receiver
	cc     CCA

	// Application data availability.
	backlogged bool
	openLoop   bool  // lost bytes are not retransmitted
	available  int64 // supplied, unsent bytes
	retxOwed   int64 // lost bytes awaiting retransmission
	lostBytes  int64 // bytes abandoned in open-loop mode
	supplied   int64 // total bytes supplied (for completion detection)
	// OnComplete, if non-nil, fires once when every supplied byte has
	// been delivered and the sender is not backlogged.
	OnComplete func(now time.Duration)
	completed  bool

	// Outstanding packet state. Seqs are dense and only increase (a
	// retransmission is a fresh seq), so every outstanding packet lies
	// in [base, nextSeq) and sits in ring slot seq&(len(ring)-1); no
	// slot below base is live. The ring doubles when that span fills it;
	// rings come from, and go back to, the engine's store.
	nextSeq       int64
	base          int64
	ring          []sentInfo
	rings         *sim.Slices[sentInfo]
	outstanding   int // live slots
	inflightBytes int
	largestAcked  int64
	recoveryUntil int64 // seqs below this belong to the current loss epoch
	// visited counts the slots detectLosses steps past; the bound test
	// divides it by the number of acks.
	visited int64

	rtt RTTEstimator

	// Pacing.
	nextSendAt time.Duration
	paceTimer  sim.Timer

	// RTO.
	rtoTimer   sim.Timer
	rtoBackoff int

	// Method values bound once at construction so re-arming the pacing
	// and RTO timers never allocates.
	trySendFn func()
	onRTOFn   func()

	// Limited-time accounting.
	state      limitState
	stateSince time.Duration
	appLimited time.Duration
	busyTime   time.Duration

	// Counters.
	bytesSent    int64
	bytesAcked   int64
	bytesRetrans int64
	lossEvents   int64
	lostPackets  int64
	startAt      time.Duration

	// marks are the instants Throughput reads bytesAcked at (Flow.Watch);
	// nextDue is the earliest unresolved one, noMark when none is.
	marks   []mark
	nextDue time.Duration

	// RTTs is a time series of RTT samples in seconds.
	RTTs stats.Series
	// TraceRTT controls whether per-ack RTT samples are retained.
	TraceRTT bool

	// Trace, if non-nil, receives the sender's event stream: send, ack,
	// cwnd (bulk, subject to sampling) and loss, timeout, limit-state
	// transitions (control, always kept). Nil costs one branch per
	// event.
	Trace obs.Tracer
	// RTTHist, if non-nil, gets one Observe(rtt_ms) per acknowledgment.
	RTTHist *obs.Histogram
}

// Supply makes n more bytes of application data available to send.
func (s *Sender) Supply(n int64) {
	if n <= 0 {
		return
	}
	s.available += n
	s.supplied += n
	s.trySend()
}

// SetBacklogged toggles infinite data availability (a persistently
// backlogged flow, the paper's prerequisite for contention).
func (s *Sender) SetBacklogged(b bool) {
	s.backlogged = b
	if b {
		s.trySend()
	}
}

// BytesAcked returns the unique delivered byte count.
func (s *Sender) BytesAcked() int64 { return s.bytesAcked }

// LossEvents returns the number of loss epochs detected.
func (s *Sender) LossEvents() int64 { return s.lossEvents }

// effectiveWnd returns the current send window in bytes.
func (s *Sender) effectiveWnd() int {
	return max(s.cc.CWnd(), sim.MSS)
}

// currentState classifies what is limiting the sender right now.
func (s *Sender) currentState() limitState {
	if s.backlogged || s.available > 0 {
		return stBusy
	}
	return stAppLimited
}

// touchState accrues elapsed time to the previous limit state and
// switches to the current one.
func (s *Sender) touchState() {
	now := s.eng.Now()
	el := now - s.stateSince
	if el > 0 {
		if s.state == stAppLimited {
			s.appLimited += el
		} else {
			s.busyTime += el
		}
	}
	s.stateSince = now
	next := s.currentState()
	if next != s.state && s.Trace != nil {
		s.Trace.Emit(obs.Event{At: now, Type: obs.EvState, Src: "sender",
			Flow: int32(s.flowID), Note: next.String()})
	}
	s.state = next
}

// trySend transmits as many packets as the window, pacing gate, and
// application data allow.
func (s *Sender) trySend() {
	if s.completed {
		return
	}
	now := s.eng.Now()
	s.touchState()
	for {
		hasData := s.backlogged || s.available > 0
		if !hasData {
			return
		}
		size := sim.MSS
		if !s.backlogged && s.available < int64(size) {
			size = int(s.available)
		}
		if s.inflightBytes+size > s.effectiveWnd() {
			return
		}
		rate := s.cc.PacingRate()
		if rate > 0 {
			if now < s.nextSendAt {
				// nextSendAt never moves earlier, so a pending release
				// is postponed, not replaced.
				if !s.paceTimer.Postpone(s.nextSendAt) {
					s.paceTimer.Cancel()
					s.paceTimer = s.eng.ScheduleAt(s.nextSendAt, s.trySendFn)
				}
				return
			}
			gap := time.Duration(float64(size*8) / rate * float64(time.Second))
			if s.nextSendAt < now {
				s.nextSendAt = now
			}
			s.nextSendAt += gap
		}
		retx := s.retxOwed > 0
		if retx {
			s.retxOwed -= int64(size)
			if s.retxOwed < 0 {
				s.retxOwed = 0
			}
		}
		s.sendPacket(size, retx)
		s.touchState()
	}
}

// slot returns seq's ring slot; seq must lie in [base, base+len(ring)).
func (s *Sender) slot(seq int64) *sentInfo {
	return &s.ring[seq&int64(len(s.ring)-1)]
}

// growRing doubles the ring (16 slots the first time), re-homing the
// full span [base, base+len(ring)) under the wider mask, and hands the
// outgrown ring back to the engine's store. The last ring goes back
// when the engine is reset.
func (s *Sender) growRing() {
	old := s.ring
	s.ring = s.rings.Get(max(2*len(old), 16))
	for seq := s.base; seq < s.base+int64(len(old)); seq++ {
		*s.slot(seq) = old[seq&int64(len(old)-1)]
	}
	if old != nil {
		s.rings.Put(old)
	}
}

// sent returns seq's slot if the packet is outstanding, else nil: it
// was acknowledged, declared lost (by packet threshold or by a timeout,
// which moves base past it) or never sent.
func (s *Sender) sent(seq int64) *sentInfo {
	if seq < s.base || seq >= s.nextSeq {
		return nil
	}
	if e := s.slot(seq); e.live {
		return e
	}
	return nil
}

func (s *Sender) sendPacket(size int, retx bool) {
	now := s.eng.Now()
	seq := s.nextSeq
	s.nextSeq++
	p := s.eng.NewPacket()
	p.FlowID = s.flowID
	p.UserID = s.userID
	p.Seq = seq
	p.Size = size
	p.SentAt = now
	p.Retx = retx
	p.Path = s.path
	p.Dest = s.dest
	if seq-s.base == int64(len(s.ring)) {
		s.growRing()
	}
	*s.slot(seq) = sentInfo{size: size, sentAt: now, deliveredAtSend: s.bytesAcked, live: true}
	s.outstanding++
	s.inflightBytes += size
	if !s.backlogged {
		s.available -= int64(size)
	}
	s.bytesSent += int64(size)
	if retx {
		s.bytesRetrans += int64(size)
	}
	if ob, ok := s.cc.(SendObserver); ok {
		ob.OnSend(now, size, s.inflightBytes)
	}
	if s.Trace != nil {
		note := ""
		if retx {
			note = "retx"
		}
		s.Trace.Emit(obs.Event{At: now, Type: obs.EvSend, Src: "sender",
			Flow: int32(s.flowID), Seq: seq, V1: float64(size), V2: float64(s.inflightBytes), Note: note})
	}
	s.armRTO()
	sim.Inject(p)
}

// Receive implements sim.Receiver for acknowledgment packets returning
// to the sender. The sender is the packet's terminal consumer: it is
// recycled when Receive returns.
func (s *Sender) Receive(p *sim.Packet) {
	if p.Ack {
		s.onAck(p)
	}
	p.Release()
}

func (s *Sender) onAck(p *sim.Packet) {
	now := s.eng.Now()
	e := s.sent(p.Seq)
	if e == nil {
		// Already declared lost (spurious retransmission) or duplicate.
		return
	}
	e.live = false
	info := *e
	s.outstanding--
	s.inflightBytes -= info.size
	if now > s.nextDue {
		s.resolveMarks(now)
	}
	s.bytesAcked += int64(info.size)
	if p.Seq > s.largestAcked {
		s.largestAcked = p.Seq
	}

	// RTT sample.
	rtt := now - info.sentAt
	s.rtt.Update(rtt)
	if s.TraceRTT {
		s.RTTs.Append(now, rtt.Seconds())
	}
	if s.RTTHist != nil {
		s.RTTHist.Observe(rtt.Seconds() * 1e3)
	}

	// Delivery rate sample (BBR-style).
	var rateBps float64
	if dt := now - info.sentAt; dt > 0 {
		rateBps = float64(s.bytesAcked-info.deliveredAtSend) * 8 / dt.Seconds()
	}

	s.detectLosses()
	s.touchState()

	s.cc.OnAck(AckInfo{
		Now:          now,
		AckedBytes:   info.size,
		RTT:          rtt,
		SRTT:         s.rtt.SRTT,
		MinRTT:       s.rtt.Min,
		Inflight:     s.inflightBytes,
		DeliveryRate: rateBps,
		CumDelivered: s.bytesAcked,
	})

	if s.Trace != nil {
		s.Trace.Emit(obs.Event{At: now, Type: obs.EvAck, Src: "sender",
			Flow: int32(s.flowID), Seq: p.Seq, V1: rtt.Seconds(), V2: float64(s.bytesAcked)})
		s.Trace.Emit(obs.Event{At: now, Type: obs.EvCwnd, Src: "sender",
			Flow: int32(s.flowID), V1: float64(s.cc.CWnd()), V2: s.cc.PacingRate()})
	}

	s.rtoBackoff = 0
	s.armRTO()
	s.maybeComplete(now)
	s.trySend()
}

func (s *Sender) maybeComplete(now time.Duration) {
	if s.completed || s.backlogged || s.OnComplete == nil {
		return
	}
	if s.available == 0 && s.inflightBytes == 0 && s.bytesAcked+s.lostBytes >= s.supplied {
		s.completed = true
		s.rtoTimer.Cancel()
		s.touchState()
		s.OnComplete(now)
	}
}

// watch registers at as an instant deliveredAt will be asked about. No
// ack at or before it may have been counted yet, so at must not lie in
// the past.
func (s *Sender) watch(at time.Duration) {
	if now := s.eng.Now(); at < now {
		panic(fmt.Sprintf("transport: flow %d: watching %v at %v, after the fact", s.flowID, at, now))
	}
	s.marks = append(s.marks, mark{at: at})
	s.nextDue = min(s.nextDue, at)
}

// resolveMarks settles every mark before now at bytesAcked, which holds
// every ack before now and none at it: onAck calls it ahead of counting
// the first ack past nextDue.
func (s *Sender) resolveMarks(now time.Duration) {
	s.nextDue = noMark
	for i := range s.marks {
		m := &s.marks[i]
		switch {
		case m.done:
		case m.at < now:
			m.value, m.done = s.bytesAcked, true
		default:
			s.nextDue = min(s.nextDue, m.at)
		}
	}
}

// deliveredAt returns the bytes acknowledged at or before the watched
// instant at; a mark no later ack has resolved takes bytesAcked as it
// stands.
func (s *Sender) deliveredAt(at time.Duration) int64 {
	for _, m := range s.marks {
		if m.at != at {
			continue
		}
		if m.done {
			return m.value
		}
		return s.bytesAcked
	}
	panic(fmt.Sprintf("transport: flow %d: throughput read at %v, an instant never watched", s.flowID, at))
}

// RTTEstimator is RFC 6298's round-trip estimate: the smoothed RTT
// (gain 1/8), its mean deviation (gain 1/4) and the minimum sample,
// all seeded by the first sample. The simulator's Sender and the
// socket probe's client both keep one.
type RTTEstimator struct {
	SRTT, Min time.Duration
	rttvar    time.Duration
	seeded    bool
}

// Update folds in one sample; a non-positive one counts as 1µs.
func (e *RTTEstimator) Update(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if !e.seeded {
		e.SRTT, e.rttvar, e.Min, e.seeded = rtt, rtt/2, rtt, true
		return
	}
	if rtt < e.Min {
		e.Min = rtt
	}
	d := e.SRTT - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.SRTT = (7*e.SRTT + rtt) / 8
}

// detectLosses declares outstanding packets lost once
// lossReorderThreshold later packets have been acknowledged, in seq
// order. Nothing below the cut is outstanding afterwards, so base moves
// up to it and the next walk starts there: each slot is stepped past
// once over the flow's life.
func (s *Sender) detectLosses() {
	for cut := s.largestAcked - lossReorderThreshold; s.base < cut; s.base++ {
		s.visited++
		if e := s.slot(s.base); e.live {
			s.declareLost(s.base, e)
		}
	}
}

func (s *Sender) declareLost(seq int64, e *sentInfo) {
	e.live = false
	info := *e
	s.outstanding--
	s.inflightBytes -= info.size
	s.lostPackets++
	if s.openLoop {
		s.lostBytes += int64(info.size)
	} else {
		// The lost bytes must be retransmitted: put them back on the
		// application queue ahead of new data. With packet-number
		// sequencing the retransmission is just a fresh packet.
		s.retxOwed += int64(info.size)
		if !s.backlogged {
			s.available += int64(info.size)
		}
	}
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{At: s.eng.Now(), Type: obs.EvLoss, Src: "sender",
			Flow: int32(s.flowID), Seq: seq, V1: float64(info.size), V2: float64(s.inflightBytes)})
	}
	if seq >= s.recoveryUntil {
		s.recoveryUntil = s.nextSeq
		s.lossEvents++
		s.cc.OnLoss(LossInfo{Now: s.eng.Now(), Inflight: s.inflightBytes, LostBytes: info.size})
	}
}

func (s *Sender) rto() time.Duration {
	if !s.rtt.seeded {
		return time.Second
	}
	r := s.rtt.SRTT + 4*s.rtt.rttvar
	if r < minRTO {
		r = minRTO
	}
	for i := 0; i < s.rtoBackoff && i < 6; i++ {
		r *= 2
	}
	return r
}

// armRTO restarts the retransmission timer, or stops it when nothing
// is outstanding. Every send and ack re-arms it, so it postpones the
// pending timeout rather than leaving a cancelled one queued.
func (s *Sender) armRTO() {
	if s.outstanding == 0 {
		s.rtoTimer.Cancel()
		return
	}
	at := s.eng.Now() + s.rto()
	if !s.rtoTimer.Postpone(at) {
		s.rtoTimer.Cancel()
		s.rtoTimer = s.eng.ScheduleAt(at, s.onRTOFn)
	}
}

func (s *Sender) onRTO() {
	if s.outstanding == 0 {
		return
	}
	now := s.eng.Now()
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{At: now, Type: obs.EvTimeout, Src: "sender",
			Flow: int32(s.flowID), V1: float64(s.outstanding), V2: float64(s.rtoBackoff)})
	}
	// Declare everything outstanding lost.
	for seq := s.base; seq < s.nextSeq; seq++ {
		e := s.slot(seq)
		if !e.live {
			continue
		}
		e.live = false
		s.lostPackets++
		if s.openLoop {
			s.lostBytes += int64(e.size)
			continue
		}
		s.retxOwed += int64(e.size)
		if !s.backlogged {
			s.available += int64(e.size)
		}
	}
	s.base = s.nextSeq
	s.outstanding = 0
	s.inflightBytes = 0
	s.recoveryUntil = s.nextSeq
	s.rtoBackoff++
	s.lossEvents++
	s.cc.OnTimeout(now)
	s.touchState()
	s.trySend()
	s.armRTO()
}

// RTTBucketsMs is the default RTT histogram bucketing in milliseconds.
var RTTBucketsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}

// RegisterMetrics exposes the sender's counters as live gauges labeled
// flow=<id>, and attaches a per-flow RTT histogram (milliseconds) that
// is fed one sample per acknowledgment.
func (s *Sender) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	label := "flow=" + strconv.Itoa(s.flowID)
	reg.RegisterFunc("flow.bytes_sent", label, func() float64 { return float64(s.bytesSent) })
	reg.RegisterFunc("flow.bytes_acked", label, func() float64 { return float64(s.bytesAcked) })
	reg.RegisterFunc("flow.bytes_retrans", label, func() float64 { return float64(s.bytesRetrans) })
	reg.RegisterFunc("flow.inflight_bytes", label, func() float64 { return float64(s.inflightBytes) })
	reg.RegisterFunc("flow.loss_events", label, func() float64 { return float64(s.lossEvents) })
	reg.RegisterFunc("flow.lost_packets", label, func() float64 { return float64(s.lostPackets) })
	reg.RegisterFunc("flow.srtt_ms", label, func() float64 { return float64(s.rtt.SRTT) / float64(time.Millisecond) })
	reg.RegisterFunc("flow.min_rtt_ms", label, func() float64 { return float64(s.rtt.Min) / float64(time.Millisecond) })
	reg.RegisterFunc("flow.cwnd_bytes", label, func() float64 { return float64(s.cc.CWnd()) })
	s.RTTHist = reg.Histogram("flow.rtt_ms", label, RTTBucketsMs)
}

// Snapshot returns a TCP_INFO-style view of the sender. ThroughputBps
// is left zero; periodic samplers fill it from deltas.
func (s *Sender) Snapshot() tcpinfo.Snapshot {
	s.touchState()
	return tcpinfo.Snapshot{
		At:           s.eng.Now() - s.startAt,
		BytesSent:    s.bytesSent,
		BytesAcked:   s.bytesAcked,
		BytesRetrans: s.bytesRetrans,
		SRTT:         s.rtt.SRTT,
		MinRTT:       s.rtt.Min,
		CWnd:         s.cc.CWnd(),
		LostPackets:  s.lostPackets,
		AppLimited:   s.appLimited,
		BusyTime:     s.busyTime,
	}
}

package transport

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FuzzThroughputWindows checks the watched instants against the per-ack
// history they replaced: a stats.Series rebuilt from the sender's EvAck
// events (V2 = bytes acked), whose Rate(from, to)*8 every watched
// window's Throughput must equal bit for bit after every operation. The
// first byte picks open- or closed-loop, backlogged or supplied, a flow
// created at 0 or mid-run, and the starting window; the rest is
// (opcode, argument) byte pairs: supply, ack the oldest or a later
// outstanding packet, ack any recent seq (a duplicate, one declared
// lost, one sent before a timeout), a retransmission timeout, Watch
// [now, now+arg ms], and advancing the clock arg ms (which may fire the
// sender's own timeout).
func FuzzThroughputWindows(f *testing.F) {
	const (
		supply  = 0
		ack     = 1
		ackAny  = 2
		rto     = 3
		watch   = 4
		advance = 5
	)
	backlogged, midRun := byte(2), byte(4)
	cwnd4 := byte(3 << 3)
	// An ack exactly at from and one exactly at to.
	f.Add([]byte{cwnd4 | backlogged, watch, 5, ack, 0, advance, 5, ack, 0, advance, 1, ack, 0, advance, 10})
	// A window that closes before the first ack.
	f.Add([]byte{cwnd4 | backlogged, watch, 10, advance, 20, ack, 0, ack, 0, advance, 3, ack, 1})
	// A window past the end of the run.
	f.Add([]byte{cwnd4 | backlogged, ack, 0, advance, 2, watch, 255, ack, 0, advance, 9, ack, 0})
	// The same instant watched twice.
	f.Add([]byte{cwnd4 | backlogged, watch, 7, watch, 7, ack, 0, advance, 7, ack, 0, advance, 1, ack, 0})
	// A flow created mid-run, supplied rather than backlogged.
	f.Add([]byte{cwnd4 | midRun, supply, 40, watch, 20, ack, 0, advance, 10, ack, 1, advance, 20, ack, 0, watch, 0})
	// Reordering, a duplicate, a timeout and acks for what it declared lost.
	f.Add([]byte{cwnd4 | backlogged, watch, 100, ack, 2, ackAny, 0, rto, 0, ackAny, 3, advance, 50, ack, 0, watch, 30, advance, 255, ack, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1024 {
			data = data[:1024] // ~500 ops
		}
		eng := &sim.Engine{}
		if data[0]&midRun != 0 {
			eng.Run(1500 * time.Millisecond)
		}
		cc := &miniReno{cwnd: (1 + int(data[0]>>3)%8) * sim.MSS, ssthresh: 16 * sim.MSS}
		s, log := newBareSender(eng, cc, FlowConfig{OpenLoop: data[0]&1 != 0, Backlogged: data[0]&backlogged != 0})
		flow := &Flow{Sender: s}
		var delivered stats.Series
		var windows [][2]time.Duration
		for i := 1; i < len(data); i += 2 {
			op, arg := data[i], byte(0)
			if i+1 < len(data) {
				arg = data[i+1]
			}
			now := eng.Now()
			switch op % 6 {
			case supply: // 100 B to ~25 kB
				s.Supply(100 * (int64(arg) + 1))
			case ack: // the arg-th outstanding packet (0: in order; later: reordered)
				if out := s.outstandingSeqs(); len(out) > 0 {
					ackSeq(s, out[int(arg)%len(out)])
				}
			case ackAny: // outstanding, duplicate, lost, or pre-timeout
				if seq := s.nextSeq - 1 - int64(arg%64); seq >= 0 {
					ackSeq(s, seq)
				}
			case rto:
				s.onRTO()
			case watch: // a cell watches a handful of windows; past 32 the checks only cost time
				if len(windows) == 32 {
					break
				}
				w := [2]time.Duration{now, now + time.Duration(arg)*time.Millisecond}
				flow.Watch(w[0], w[1])
				windows = append(windows, w)
			case advance:
				eng.Run(now + time.Duration(arg)*time.Millisecond)
			}
			for _, ev := range log.evs {
				if ev.Type == obs.EvAck {
					delivered.Append(ev.At, ev.V2)
				}
			}
			log.evs = log.evs[:0]
			ctx := fmt.Sprintf("op %d (%d,%d) at %v", i/2, op, arg, eng.Now())
			for _, w := range windows {
				got, want := flow.Throughput(w[0], w[1]), delivered.Rate(w[0], w[1])*8
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Throughput(%v, %v) = %v, per-ack series says %v", ctx, w[0], w[1], got, want)
				}
			}
		}
	})
}

func TestWatchPanicsAfterTheFact(t *testing.T) {
	eng := &sim.Engine{}
	s, _ := newBareSender(eng, &miniReno{cwnd: 4 * sim.MSS, ssthresh: 1 << 30}, FlowConfig{Backlogged: true})
	flow := &Flow{Sender: s}
	flow.Watch(time.Second, 2*time.Second)
	eng.Run(1500 * time.Millisecond)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("watching a window that has begun", func() { flow.Watch(time.Second, 3*time.Second) })
	mustPanic("reading an unwatched window", func() { flow.Throughput(time.Second, 3*time.Second) })
	flow.Watch(1500*time.Millisecond, 3*time.Second) // from = now is in time
	if got := flow.Throughput(2*time.Second, time.Second); got != 0 {
		t.Errorf("inverted window = %v, want 0", got)
	}
}

package cca

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// FuzzCCAAck feeds every registered congestion controller adversarial
// ack/loss/timeout sequences — tiny and huge RTTs, zero and absurd
// delivery rates, losses with nothing in flight, duplicate timeouts —
// and asserts the safety contract every CCA must keep: the window
// stays positive, the pacing rate stays finite and non-negative, and
// nothing panics. The input is consumed as (opcode, a, b) byte
// triples.
func FuzzCCAAck(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 20, 4, 1, 0, 0, 0, 30, 4})
	f.Add([]byte{0, 1, 0, 2, 0, 0, 0, 255, 255, 1, 255, 255, 2, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 0, 5, 5})
	f.Add([]byte{0, 200, 1, 0, 0, 200, 1, 9, 9, 0, 3, 3, 2, 1, 1, 0, 50, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		windows := map[string][]int{}
		for _, name := range Names() {
			cc, err := New(name)
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			windows[name] = driveCCA(t, name, cc, data)
		}
		// "reno" is the default AIMD point under another name: the two
		// registry entries must trace the same window, callback for
		// callback.
		if reno, aimd := windows["reno"], windows["aimd"]; !slices.Equal(reno, aimd) {
			t.Fatalf("reno and aimd windows diverge:\nreno %v\naimd %v", reno, aimd)
		}
	})
}

// TestRenoIsNamedAIMD: the registry's "reno" and "aimd" build the same
// controller (FuzzCCAAck's corpus pins their windows equal).
func TestRenoIsNamedAIMD(t *testing.T) {
	reno, _ := New("reno")
	aimd, _ := New("aimd")
	if r, ok := reno.(*AIMD); !ok || *r != *aimd.(*AIMD) {
		t.Errorf("reno = %+v, want the default AIMD %+v", reno, aimd)
	}
}

// driveCCA replays the fuzz input against one controller, checking the
// safety contract after every callback, and returns CWnd after each.
func driveCCA(t *testing.T, name string, cc transport.CCA, data []byte) (windows []int) {
	now := time.Duration(0)
	var delivered int64
	minRTT := time.Duration(math.MaxInt64)
	var srtt time.Duration
	inflight := 0

	checkSafety := func(op string) {
		t.Helper()
		w := cc.CWnd()
		if w <= 0 {
			t.Fatalf("%s: CWnd = %d after %s (must stay positive)", name, w, op)
		}
		windows = append(windows, w)
		r := cc.PacingRate()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("%s: PacingRate = %v after %s (must be finite and non-negative)", name, r, op)
		}
	}
	checkSafety("init")

	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		// Time always advances a little; a stretches it up to ~2.5s.
		now += time.Millisecond + time.Duration(a)*10*time.Millisecond
		switch op % 4 {
		case 0, 3: // ack (twice as likely, as in real traffic)
			rtt := time.Duration(b)*time.Millisecond + time.Microsecond
			if rtt < minRTT {
				minRTT = rtt
			}
			if srtt == 0 {
				srtt = rtt
			} else {
				srtt = (7*srtt + rtt) / 8
			}
			acked := int(a)*37 + 1 // 1..9436 bytes
			delivered += int64(acked)
			if inflight -= acked; inflight < 0 {
				inflight = 0
			}
			var rate float64
			if b%3 != 0 {
				rate = float64(a) * float64(b) * 1e4 // up to ~650 Mbit/s
			}
			cc.OnAck(transport.AckInfo{
				Now:          now,
				AckedBytes:   acked,
				RTT:          rtt,
				SRTT:         srtt,
				MinRTT:       minRTT,
				Inflight:     inflight,
				DeliveryRate: rate,
				CumDelivered: delivered,
			})
			inflight += int(b) * 100 // pretend more was sent
			checkSafety("OnAck")
		case 1:
			cc.OnLoss(transport.LossInfo{Now: now, Inflight: inflight, LostBytes: sim.MSS})
			checkSafety("OnLoss")
		case 2:
			cc.OnTimeout(now)
			inflight = 0
			checkSafety("OnTimeout")
		}
	}
	return windows
}

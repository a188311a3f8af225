package transport_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/nimbus"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

// faultClass is one column of the fault matrix: a qdisc impairment and
// the retransmission budget a healthy transport should stay within
// while completing a transfer through it.
type faultClass struct {
	name string
	wrap func(inner sim.Qdisc) sim.Qdisc
	// maxRetransFrac bounds BytesRetrans/total: spurious plus genuine
	// recovery traffic. Duplication and flaps legitimately retransmit
	// more than mild jitter does.
	maxRetransFrac float64
}

func matrixClasses() []faultClass {
	return []faultClass{
		{
			name: "ge-burst",
			wrap: func(inner sim.Qdisc) sim.Qdisc {
				return faults.NewGilbertElliott(inner,
					faults.GESpec{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 0.4}, rand.New(rand.NewSource(11)))
			},
			maxRetransFrac: 0.30,
		},
		{
			name: "reorder",
			wrap: func(inner sim.Qdisc) sim.Qdisc {
				return faults.NewReorderer(inner, 0.03, 20*time.Millisecond, rand.New(rand.NewSource(12)))
			},
			maxRetransFrac: 0.60,
		},
		{
			name: "duplicate",
			wrap: func(inner sim.Qdisc) sim.Qdisc {
				return faults.NewDuplicator(inner, 0.05, rand.New(rand.NewSource(13)))
			},
			maxRetransFrac: 0.30,
		},
		{
			name: "jitter",
			wrap: func(inner sim.Qdisc) sim.Qdisc {
				return faults.NewJitter(inner, 10*time.Millisecond, rand.New(rand.NewSource(14)))
			},
			maxRetransFrac: 0.20,
		},
		{
			name: "flap-2s",
			wrap: func(inner sim.Qdisc) sim.Qdisc {
				return faults.Config{
					Outages: []faults.WindowSpec{{StartS: 0.4, EndS: 2.4}},
				}.Build(new(sim.Engine), inner, 1).Qdisc()
			},
			maxRetransFrac: 0.60,
		},
	}
}

// TestFaultMatrix runs every registered CCA against every fault class:
// a 2 MiB transfer on a 20 Mbit/s, 20 ms-RTT link must complete (no
// stall, no wedge) with bounded retransmission.
func TestFaultMatrix(t *testing.T) {
	const total = 2 << 20
	for _, name := range cca.Names() {
		for _, fc := range matrixClasses() {
			name, fc := name, fc
			t.Run(name+"/"+fc.name, func(t *testing.T) {
				eng := &sim.Engine{}
				link := sim.NewLink(eng, "l", 20e6, 10*time.Millisecond,
					fc.wrap(qdisc.NewDropTail(1<<20)))
				cc, err := cca.New(name)
				if err != nil {
					t.Fatal(err)
				}
				f := transport.NewFlow(eng, transport.FlowConfig{
					ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
					CC: cc,
				})
				var doneAt time.Duration
				done := false
				f.Sender.OnComplete = func(at time.Duration) { done, doneAt = true, at }
				f.Sender.Supply(total)
				eng.Run(2 * time.Minute)
				if !done {
					t.Fatalf("%s wedged under %s: acked %d of %d, inflight %d, loss events %d",
						name, fc.name, f.Sender.BytesAcked(), total,
						f.Sender.Inflight(), f.Sender.LossEvents())
				}
				if f.Sender.BytesAcked() != total {
					t.Errorf("acked %d, want %d", f.Sender.BytesAcked(), total)
				}
				frac := float64(f.Sender.Snapshot().BytesRetrans) / float64(total)
				if frac > fc.maxRetransFrac {
					t.Errorf("%s under %s retransmitted %.1f%% (budget %.0f%%)",
						name, fc.name, 100*frac, 100*fc.maxRetransFrac)
				}
				_ = doneAt
			})
		}
	}
}

// TestNimbusProbeSurvivesFaultProfiles: the measurement CCA itself must
// tolerate every named impairment profile — the probe keeps sending,
// the estimator keeps emitting, and every emitted elasticity value is
// finite (no NaN/Inf propagates out of the FFT path).
func TestNimbusProbeSurvivesFaultProfiles(t *testing.T) {
	for _, profile := range faults.Names() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			p, err := faults.Lookup(profile)
			if err != nil {
				t.Fatal(err)
			}
			eng := &sim.Engine{}
			ch := p.Build(eng, qdisc.NewDropTailBDP(24e6, 40*time.Millisecond, 1), 21)
			link := sim.NewLink(eng, "l", 24e6, 20*time.Millisecond, ch.Qdisc())
			probe := nimbus.NewCCA(nimbus.Config{Mu: 24e6, PulseFreq: 2})
			f := transport.NewFlow(eng, transport.FlowConfig{
				ID: 1, Path: []*sim.Link{link}, ReturnDelay: 20 * time.Millisecond,
				CC: probe, Backlogged: true,
			})
			f.Start()
			eng.Run(30 * time.Second)
			if f.Sender.BytesAcked() == 0 {
				t.Fatalf("probe starved under %s", profile)
			}
			etas := probe.Est.Elasticity.Samples()
			for _, s := range etas {
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Fatalf("non-finite eta %v at %v under %s", s.Value, s.At, profile)
				}
			}
		})
	}
}

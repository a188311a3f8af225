package tslp

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestProberQuietOnIdleLink(t *testing.T) {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", 10e6, 10*time.Millisecond, qdisc.NewDropTail(1<<20))
	p := NewProber(eng, link)
	eng.Run(20 * time.Second)
	if p.Sent == 0 || p.Received == 0 {
		t.Fatalf("sent=%d received=%d", p.Sent, p.Received)
	}
	v := p.Verdict(5*time.Second, 20*time.Second)
	if v.Congested {
		t.Errorf("idle link flagged congested: %+v", v)
	}
	if v.P90Ms > 1 {
		t.Errorf("idle p90 differential = %.2fms", v.P90Ms)
	}
}

func TestProberDetectsCongestedLink(t *testing.T) {
	eng := &sim.Engine{}
	const rate = 10e6
	link := sim.NewLink(eng, "l", rate, 10*time.Millisecond,
		qdisc.NewDropTailBDP(rate, 20*time.Millisecond, 4))
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
		CC: cca.NewCubicCC(), Backlogged: true,
	})
	f.Start()
	p := NewProber(eng, link)
	eng.Run(20 * time.Second)
	v := p.Verdict(5*time.Second, 20*time.Second)
	if !v.Congested {
		t.Errorf("loaded link not flagged: %+v", v)
	}
	if v.P50Ms < 5 {
		t.Errorf("p50 differential = %.2fms, want inflated", v.P50Ms)
	}
}

func TestVerdictEmptyWindow(t *testing.T) {
	eng := &sim.Engine{}
	link := sim.NewLink(eng, "l", 10e6, time.Millisecond, qdisc.NewDropTail(1<<20))
	p := NewProber(eng, link)
	v := p.Verdict(0, time.Second)
	if v.Congested || v.P90Ms != 0 {
		t.Errorf("empty verdict = %+v", v)
	}
}

// TSLP's known limitation (the reason the paper proposes active
// elasticity measurement): it cannot tell contention from an
// aggregate-congested link — both inflate the differential.
func TestProberCannotDiscriminateCause(t *testing.T) {
	measure := func(twoBulk bool) Verdict {
		eng := &sim.Engine{}
		const rate = 10e6
		link := sim.NewLink(eng, "l", rate, 10*time.Millisecond,
			qdisc.NewDropTailBDP(rate, 20*time.Millisecond, 2))
		if twoBulk {
			for i := 0; i < 2; i++ {
				f := transport.NewFlow(eng, transport.FlowConfig{
					ID: i + 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
					CC: cca.NewRenoCC(), Backlogged: true,
				})
				f.Start()
			}
		} else {
			// One unresponsive aggregate at 1.2x capacity.
			f := transport.NewFlow(eng, transport.FlowConfig{
				ID: 1, Path: []*sim.Link{link}, ReturnDelay: 10 * time.Millisecond,
				CC: cca.NewCBR(1.2 * rate), Backlogged: true, OpenLoop: true,
			})
			f.Start()
		}
		p := NewProber(eng, link)
		eng.Run(15 * time.Second)
		return p.Verdict(5*time.Second, 15*time.Second)
	}
	contention := measure(true)
	aggregate := measure(false)
	if !contention.Congested || !aggregate.Congested {
		t.Errorf("TSLP should flag both: contention=%+v aggregate=%+v", contention, aggregate)
	}
}

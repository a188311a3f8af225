package qdisc

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestCoDelPassesUncongested(t *testing.T) {
	c := NewCoDel(1 << 20)
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		if !c.Enqueue(pkt(1, 1, 1000), now) {
			t.Fatal("enqueue refused")
		}
		// Dequeue immediately: zero sojourn, no drops.
		p, _ := c.Dequeue(now)
		if p == nil {
			t.Fatal("dequeue failed")
		}
		now += time.Millisecond
	}
	if c.Dropped != 0 {
		t.Errorf("CoDel dropped %d packets with zero sojourn", c.Dropped)
	}
}

func TestCoDelDropsOnPersistentDelay(t *testing.T) {
	c := NewCoDel(1 << 20)
	// Fill a deep queue at t=0, then drain slowly so every packet's
	// sojourn is far above target for well over an interval.
	for i := 0; i < 500; i++ {
		c.Enqueue(pkt(1, 1, 1000), 0)
	}
	now := time.Duration(0)
	served := 0
	for c.Len() > 0 {
		now += 10 * time.Millisecond
		p, _ := c.Dequeue(now)
		if p != nil {
			served++
		}
	}
	if c.Dropped == 0 {
		t.Error("CoDel should drop under persistent queueing delay")
	}
	if served+int(c.Dropped) != 500 {
		t.Errorf("conservation: served %d + dropped %d != 500", served, c.Dropped)
	}
}

func TestCoDelKeepsQueueShortEndToEnd(t *testing.T) {
	// A backlogged Cubic flow over CoDel should settle near the 5ms
	// target instead of filling the 4xBDP buffer.
	eng := &sim.Engine{}
	const rate = 20e6
	owd := 20 * time.Millisecond
	buf := int(rate / 8 * 0.16) // 4 BDP
	codel := NewCoDel(buf)
	link := sim.NewLink(eng, "l", rate, owd, codel)
	f := transport.NewFlow(eng, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link}, ReturnDelay: owd,
		CC: cca.NewCubicCC(), Backlogged: true, TraceRTT: true,
	})
	f.Watch(10*time.Second, 30*time.Second)
	f.Start()
	eng.Run(30 * time.Second)

	// Compare against droptail on the same topology.
	eng2 := &sim.Engine{}
	link2 := sim.NewLink(eng2, "l", rate, owd, NewDropTail(buf))
	f2 := transport.NewFlow(eng2, transport.FlowConfig{
		ID: 1, Path: []*sim.Link{link2}, ReturnDelay: owd,
		CC: cca.NewCubicCC(), Backlogged: true, TraceRTT: true,
	})
	f2.Start()
	eng2.Run(30 * time.Second)

	rttCoDel := f.Sender.Snapshot().SRTT
	rttTail := f2.Sender.Snapshot().SRTT
	if rttCoDel >= rttTail {
		t.Errorf("CoDel SRTT %v should beat droptail %v", rttCoDel, rttTail)
	}
	// Throughput must not collapse.
	if tput := f.Throughput(10*time.Second, 30*time.Second); tput < 0.7*rate {
		t.Errorf("CoDel throughput = %.1f Mbit/s", tput/1e6)
	}
	if codel.Dropped == 0 {
		t.Error("expected CoDel drops against a loss-based flow")
	}
}

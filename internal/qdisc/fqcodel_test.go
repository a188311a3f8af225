package qdisc

import (
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

func TestFQCoDelFairnessAndOrder(t *testing.T) {
	q := NewFQCoDel(ByFlow, 1<<20)
	for i := 0; i < 100; i++ {
		q.Enqueue(pkt(1, 1, 1000), 0)
		q.Enqueue(pkt(2, 2, 1000), 0)
	}
	served := map[int]int{}
	for i := 0; i < 100; i++ {
		p, _ := q.Dequeue(0)
		if p == nil {
			t.Fatal("unexpected empty")
		}
		served[p.FlowID]++
	}
	if served[1] < 45 || served[2] < 45 {
		t.Errorf("service split = %v, want even", served)
	}
}

func TestFQCoDelConservation(t *testing.T) {
	q := NewFQCoDel(ByFlow, 64*1500)
	enq := 0
	for i := 0; i < 500; i++ {
		if q.Enqueue(pkt(i%5, 0, 1500), 0) {
			enq++
		}
	}
	deq := 0
	now := time.Duration(0)
	for q.Len() > 0 {
		now += time.Millisecond
		if p, _ := q.Dequeue(now); p != nil {
			deq++
		}
	}
	if deq+int(q.CoDelDropped) != enq {
		t.Errorf("conservation: deq %d + codel-drops %d != enq %d", deq, q.CoDelDropped, enq)
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Errorf("residual bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

// TestFQCoDelIsolatesDelayAndBandwidth is the §2.3 claim end to end:
// with fq_codel at the bottleneck, a low-rate flow keeps low delay and
// its fair bandwidth regardless of a bufferbloating bulk flow.
func TestFQCoDelIsolatesDelayAndBandwidth(t *testing.T) {
	run := func(useFQ bool) (smoothRTT time.Duration, smoothTput float64) {
		eng := &sim.Engine{}
		const rate = 20e6
		owd := 10 * time.Millisecond
		buf := int(rate / 8 * 0.16) // 4 BDP: bufferbloat-prone
		var q sim.Qdisc
		if useFQ {
			q = NewFQCoDel(ByFlow, buf)
		} else {
			q = NewDropTail(buf)
		}
		link := sim.NewLink(eng, "l", rate, owd, q)
		smooth := transport.NewFlow(eng, transport.FlowConfig{
			ID: 1, Path: []*sim.Link{link}, ReturnDelay: owd,
			CC: cca.NewCBR(2e6), Backlogged: true, TraceRTT: true,
		})
		smooth.Watch(5*time.Second, 20*time.Second)
		smooth.Start()
		bulk := transport.NewFlow(eng, transport.FlowConfig{
			ID: 2, Path: []*sim.Link{link}, ReturnDelay: owd,
			CC: cca.NewCubicCC(), Backlogged: true,
		})
		bulk.Start()
		eng.Run(20 * time.Second)
		return smooth.Sender.Snapshot().SRTT, smooth.Throughput(5*time.Second, 20*time.Second)
	}
	fifoRTT, _ := run(false)
	fqRTT, fqTput := run(true)
	if fqRTT >= fifoRTT {
		t.Errorf("fq_codel SRTT %v should beat droptail %v", fqRTT, fifoRTT)
	}
	if fqRTT > 40*time.Millisecond {
		t.Errorf("fq_codel smooth-flow SRTT = %v, want near propagation", fqRTT)
	}
	if fqTput < 1.7e6 {
		t.Errorf("smooth flow got %.2f Mbit/s under fq_codel, want ~2", fqTput/1e6)
	}
}

// TestFQCoDelEqualizesCCAs mirrors the fig1 FQ result with the
// deployed discipline: reno vs bbr share evenly.
func TestFQCoDelEqualizesCCAs(t *testing.T) {
	eng := &sim.Engine{}
	const rate = 48e6
	owd := 20 * time.Millisecond
	link := sim.NewLink(eng, "l", rate, owd, NewFQCoDel(ByFlow, int(rate/8*0.08)))
	mk := func(id int, cc transport.CCA) *transport.Flow {
		f := transport.NewFlow(eng, transport.FlowConfig{
			ID: id, Path: []*sim.Link{link}, ReturnDelay: owd,
			CC: cc, Backlogged: true,
		})
		f.Watch(15*time.Second, 40*time.Second)
		f.Start()
		return f
	}
	reno := mk(1, cca.NewRenoCC())
	bbr := mk(2, cca.NewBBRCC())
	eng.Run(40 * time.Second)
	t1 := reno.Throughput(15*time.Second, 40*time.Second)
	t2 := bbr.Throughput(15*time.Second, 40*time.Second)
	if j := stats.JainIndex([]float64{t1, t2}); j < 0.95 {
		t.Errorf("fq_codel reno/bbr jain = %.3f (%.1f vs %.1f Mbit/s)", j, t1/1e6, t2/1e6)
	}
}

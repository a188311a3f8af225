package qdisc

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// FQCoDel combines per-flow DRR scheduling with a CoDel instance per
// flow queue — a simplified fq_codel, the discipline actually deployed
// on home routers and the concrete embodiment of §2.3's "fair queueing
// and isolation is cheap and easy to implement". Flows are isolated
// from each other's bandwidth (DRR) and from each other's standing
// queues (per-flow CoDel).
type FQCoDel struct {
	classify ClassifyFunc
	quantum  int
	limit    int

	flows   map[int]*fqFlow
	ring    []*fqFlow
	ringPos int
	bytes   int
	pkts    int

	// Dropped counts enqueue refusals; CoDelDropped counts AQM drops.
	Dropped      int64
	CoDelDropped int64
	// Trace, if non-nil, is propagated to each per-flow CoDel so AQM
	// drops inside flow queues surface as EvMark events. Set it before
	// traffic starts; flow queues created earlier keep a nil tracer.
	Trace obs.Tracer
}

type fqFlow struct {
	id      int
	codel   *CoDel
	deficit int
	active  bool
	granted bool
}

// NewFQCoDel returns the discipline with the given total byte limit.
func NewFQCoDel(classify ClassifyFunc, limitBytes int) *FQCoDel {
	if classify == nil {
		classify = ByFlow
	}
	if limitBytes <= 0 {
		limitBytes = unbounded
	}
	return &FQCoDel{
		classify: classify,
		quantum:  sim.MSS,
		limit:    limitBytes,
		flows:    make(map[int]*fqFlow),
	}
}

// Enqueue implements sim.Qdisc.
func (f *FQCoDel) Enqueue(p *sim.Packet, now time.Duration) bool {
	if f.bytes+p.Size > f.limit {
		f.Dropped++
		return false
	}
	id := f.classify(p)
	fl := f.flows[id]
	if fl == nil {
		fl = &fqFlow{id: id, codel: NewCoDel(f.limit)}
		fl.codel.Trace = f.Trace
		f.flows[id] = fl
	}
	if !fl.codel.Enqueue(p, now) {
		f.Dropped++
		return false
	}
	f.bytes += p.Size
	f.pkts++
	if !fl.active {
		fl.active = true
		fl.deficit = 0
		fl.granted = false
		f.ring = append(f.ring, fl)
	}
	return true
}

// Dequeue implements sim.Qdisc: DRR over flows, CoDel within a flow.
func (f *FQCoDel) Dequeue(now time.Duration) (*sim.Packet, time.Duration) {
	for {
		if len(f.ring) == 0 {
			return nil, 0
		}
		if f.ringPos >= len(f.ring) {
			f.ringPos = 0
		}
		fl := f.ring[f.ringPos]
		if fl.codel.Len() == 0 {
			fl.active = false
			fl.granted = false
			fl.deficit = 0
			f.ring = append(f.ring[:f.ringPos], f.ring[f.ringPos+1:]...)
			continue
		}
		if !fl.granted {
			fl.deficit += f.quantum
			fl.granted = true
		}
		// Peek via byte count: CoDel may drop packets at dequeue, so
		// track the aggregate before/after.
		before := fl.codel.Bytes()
		beforePkts := fl.codel.Len()
		if fl.deficit < sim.MSS && fl.deficit < before {
			// May not cover the head packet; attempt only when a full
			// quantum has accumulated.
			fl.granted = false
			f.ringPos++
			continue
		}
		p, _ := fl.codel.Dequeue(now)
		// Account CoDel's AQM drops (packets removed beyond the one
		// returned).
		served := 0
		if p != nil {
			served = p.Size
		}
		dropped := before - fl.codel.Bytes() - served
		if dropped > 0 {
			f.bytes -= dropped
		}
		droppedPkts := beforePkts - fl.codel.Len()
		if p != nil {
			droppedPkts--
		}
		if droppedPkts > 0 {
			f.CoDelDropped += int64(droppedPkts)
			f.pkts -= droppedPkts
		}
		if p == nil {
			continue
		}
		fl.deficit -= p.Size
		f.bytes -= p.Size
		f.pkts--
		if fl.codel.Len() == 0 {
			fl.active = false
			fl.granted = false
			fl.deficit = 0
			f.ring = append(f.ring[:f.ringPos], f.ring[f.ringPos+1:]...)
		} else if fl.deficit <= 0 {
			fl.granted = false
			f.ringPos++
		}
		return p, 0
	}
}

// Len implements sim.Qdisc.
func (f *FQCoDel) Len() int { return f.pkts }

// Bytes implements sim.Qdisc.
func (f *FQCoDel) Bytes() int { return f.bytes }

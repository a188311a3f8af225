package qdisc

import (
	"time"

	"repro/internal/sim"
)

// ClassifyFunc maps a packet to a scheduling class. Per-flow fair
// queueing uses ByFlow.
type ClassifyFunc func(p *sim.Packet) int

// ByFlow classifies packets by FlowID.
func ByFlow(p *sim.Packet) int { return p.FlowID }

type drrClass struct {
	id int
	// fifo is the class's queue, unbounded: DRR enforces its limit
	// across classes.
	fifo    DropTail
	deficit int
	active  bool
	// granted marks that the class already received its quantum for
	// the current round-robin visit; it is cleared when the scheduler
	// moves past the class.
	granted bool
}

// DRR is a deficit-round-robin fair queue (Shreedhar & Varghese), the
// standard O(1) approximation of bit-by-bit round robin fair queueing.
// Each class receives quantum bytes of service per round; with equal
// quanta the discipline enforces max-min fair throughput among
// backlogged classes, which is precisely the isolation property §2.1 of
// the paper appeals to.
type DRR struct {
	classify ClassifyFunc
	quantum  int
	limit    int // total byte limit across classes
	classes  map[int]*drrClass
	ring     []*drrClass // active classes in round-robin order
	ringPos  int
	bytes    int
	pkts     int
	// Dropped counts packets refused at enqueue.
	Dropped int64
}

// NewDRR returns a DRR fair queue. quantum is the per-round byte
// allowance per class (>= MSS recommended); limitBytes bounds total
// buffered bytes across all classes.
func NewDRR(classify ClassifyFunc, quantum, limitBytes int) *DRR {
	if classify == nil {
		classify = ByFlow
	}
	if quantum < sim.MSS {
		quantum = sim.MSS
	}
	if limitBytes <= 0 {
		limitBytes = unbounded
	}
	return &DRR{classify: classify, quantum: quantum, limit: limitBytes, classes: make(map[int]*drrClass)}
}

// Enqueue implements sim.Qdisc. When the aggregate limit is exceeded
// the arriving packet is dropped ("tail drop on the longest queue"
// variants exist; dropping the arrival keeps the discipline simple and
// still isolates classes because the per-class backlog cannot starve
// others' service).
func (d *DRR) Enqueue(p *sim.Packet, _ time.Duration) bool {
	if d.bytes+p.Size > d.limit {
		// Drop from the longest class instead of the arrival when the
		// arrival belongs to a shorter class: this protects low-rate
		// flows from loss caused by heavy ones, matching FQ practice.
		longest := d.longestClass()
		cid := d.classify(p)
		if longest != nil && longest.id != cid && longest.fifo.Bytes() > p.Size {
			d.dropHead(longest)
		} else {
			d.Dropped++
			return false
		}
	}
	cid := d.classify(p)
	c := d.classes[cid]
	if c == nil {
		c = &drrClass{id: cid, fifo: DropTail{limit: unbounded}}
		d.classes[cid] = c
	}
	c.fifo.Enqueue(p, 0)
	d.bytes += p.Size
	d.pkts++
	if !c.active {
		c.active = true
		c.deficit = 0
		d.ring = append(d.ring, c)
	}
	return true
}

func (d *DRR) longestClass() *drrClass {
	var longest *drrClass
	for _, c := range d.ring {
		if longest == nil || c.fifo.Bytes() > longest.fifo.Bytes() {
			longest = c
		}
	}
	return longest
}

func (d *DRR) dropHead(c *drrClass) {
	p, _ := c.fifo.Dequeue(0)
	if p == nil {
		return
	}
	d.bytes -= p.Size
	d.pkts--
	d.Dropped++
	// Internal eviction: the link never sees this packet again, so the
	// qdisc is its terminal consumer.
	p.Release()
}

// Dequeue implements sim.Qdisc.
func (d *DRR) Dequeue(_ time.Duration) (*sim.Packet, time.Duration) {
	if d.pkts == 0 {
		return nil, 0
	}
	for {
		if len(d.ring) == 0 {
			return nil, 0
		}
		if d.ringPos >= len(d.ring) {
			d.ringPos = 0
		}
		c := d.ring[d.ringPos]
		head := c.fifo.peek()
		if head == nil {
			// Class went empty: deactivate and remove from the ring.
			c.active = false
			c.granted = false
			c.deficit = 0
			d.ring = append(d.ring[:d.ringPos], d.ring[d.ringPos+1:]...)
			continue
		}
		if !c.granted {
			// One quantum per round-robin visit.
			c.deficit += d.quantum
			c.granted = true
		}
		if c.deficit < head.Size {
			// Grant exhausted: move to the next class; the grant flag
			// resets so the class receives a fresh quantum next round.
			c.granted = false
			d.ringPos++
			continue
		}
		p, _ := c.fifo.Dequeue(0)
		c.deficit -= p.Size
		d.bytes -= p.Size
		d.pkts--
		if c.fifo.Len() == 0 {
			c.active = false
			c.granted = false
			c.deficit = 0
			d.ring = append(d.ring[:d.ringPos], d.ring[d.ringPos+1:]...)
		}
		return p, 0
	}
}

// Len implements sim.Qdisc.
func (d *DRR) Len() int { return d.pkts }

// Bytes implements sim.Qdisc.
func (d *DRR) Bytes() int { return d.bytes }

package qdisc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func benchQdisc(b *testing.B, q sim.Qdisc) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pkt(i%16, i%4, sim.MSS)
		if q.Enqueue(p, 0) {
			q.Dequeue(0)
		}
	}
}

func BenchmarkDropTail(b *testing.B) { benchQdisc(b, NewDropTail(1<<20)) }

func BenchmarkDRR16Flows(b *testing.B) { benchQdisc(b, NewDRR(ByFlow, sim.MSS, 1<<20)) }

func BenchmarkSFQ(b *testing.B) { benchQdisc(b, NewSFQ(1<<20)) }

// BenchmarkTokenBucketShaper prices one shaped packet: its Enqueue,
// and a Dequeue that refills the bucket and spends the packet's
// tokens. The clock advances by one packet's transmission time at the
// shaper's rate per iteration, so the shaper releases every packet it
// is handed. benchQdisc's clock stays at 0, where the burst runs out
// after a few hundred packets and every later iteration is a refused
// Enqueue.
func BenchmarkTokenBucketShaper(b *testing.B) {
	const rateBits = 1e9
	q := newTokenBucketShaper(rateBits, 1<<20, 1<<20)
	tx := time.Duration(sim.MSS * 8 * float64(time.Second) / rateBits)
	var now time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += tx
		if !q.Enqueue(pkt(i%16, i%4, sim.MSS), now) {
			b.Fatalf("packet %d refused", i)
		}
		if p, _ := q.Dequeue(now); p == nil {
			b.Fatalf("packet %d held at %v", i, now)
		}
	}
}

func BenchmarkCoDel(b *testing.B) { benchQdisc(b, NewCoDel(1<<20)) }

func BenchmarkUserIsolation(b *testing.B) { benchQdisc(b, unthrottled(1<<20)) }

// BenchmarkUserIsolationThrottled prices one transmitted packet (its
// dequeues and the enqueue that replaces it) in the regime the
// benchmark above never enters: every backlogged user waiting for
// tokens, as in the manyflow cell (see throttledCell).
func BenchmarkUserIsolationThrottled(b *testing.B) {
	for _, users := range []int{100, 2000, 5000} {
		b.Run(fmt.Sprint(users), func(b *testing.B) {
			c := newThrottledCell(users)
			c.serve(2 * users) // start every sender and spend its burst
			b.ReportAllocs()
			b.ResetTimer()
			c.serve(b.N)
		})
	}
}

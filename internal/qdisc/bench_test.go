package qdisc

import (
	"fmt"
	"testing"

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

func BenchmarkTokenBucketShaper(b *testing.B) {
	benchQdisc(b, newTokenBucketShaper(1e12, 1<<20, 1<<20))
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

package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkManyFlow measures the cell's cost profile across population
// sizes. The scaling contract: per-flow wall cost (ns/flow) and
// allocations per flow stay flat as the population grows 50x — CI's
// manyflow-smoke job fails when ns/flow at 5,000 users exceeds 3x
// ns/flow at 100 (1.40 for medians of five fresh -benchtime 1x
// processes on a 2-vCPU Xeon). events/flow is a count, the same on
// every machine, that moves only when the simulation does. Both costs
// depend on the engine heap holding O(flows) events — packets in
// flight wait in delay lines behind one queued front packet each, and
// a re-armed timer moves in place — in storage that is recycled, not
// allocated per event, so allocs/flow cannot grow with it; on the
// isolation scheduler keeping token-throttled users off its dequeue
// path (a release-time heap; rescanning them on every dequeue read
// 12.9x here); and on the drained-queue array recycling.
func BenchmarkManyFlow(b *testing.B) {
	for _, users := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprint(users), func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := RunManyFlow(ManyFlowConfig{
					Users:    users,
					Duration: 2 * time.Second,
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			runtime.ReadMemStats(&ms1)
			allocs := float64(ms1.Mallocs - ms0.Mallocs)
			b.ReportMetric(allocs/float64(b.N)/float64(users), "allocs/flow")
			b.ReportMetric(float64(events)/float64(b.N)/float64(users), "events/flow")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(users), "ns/flow")
		})
	}
}

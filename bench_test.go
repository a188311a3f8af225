package repro_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mlab"
	"repro/internal/obs"
)

// BenchmarkFig1Isolation regenerates Figure 1's quantitative claim: the
// full CCA-pair x queue-discipline grid. Reported metrics: BBR's share
// against Reno under FIFO (paper shape: well above 50%) and the Jain
// index under fair queueing (shape: ~1.0 regardless of pairing).
func BenchmarkFig1Isolation(b *testing.B) {
	var fifoShare, fqJain float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig1(core.Fig1Config{Duration: 20 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.CCA1 != "reno" || row.CCA2 != "bbr" {
				continue
			}
			switch row.Queue {
			case core.QueueDropTail:
				fifoShare = row.Share2
			case core.QueueFQ:
				fqJain = row.Jain
			}
		}
	}
	b.ReportMetric(100*fifoShare, "bbr-share-fifo-%")
	b.ReportMetric(fqJain, "jain-fq")
}

// BenchmarkFig2MLabPipeline regenerates Figure 2: generate the
// synthetic June-2023-sized NDT dataset and run the passive pipeline.
// Reported metrics: fraction of flows excluded as app-/rwnd-limited or
// cellular, and the fraction of candidates with throughput level
// shifts.
func BenchmarkFig2MLabPipeline(b *testing.B) {
	var excluded, shifted float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig2(core.Fig2Config{
			Generator: mlab.GeneratorConfig{Flows: 9984, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		an := res.Analysis
		cand := an.ByCat[mlab.CatStable] + an.ByCat[mlab.CatLevelShift]
		excluded = 1 - float64(cand)/float64(an.Total)
		if cand > 0 {
			shifted = float64(an.ByCat[mlab.CatLevelShift]) / float64(cand)
		}
	}
	b.ReportMetric(100*excluded, "excluded-%")
	b.ReportMetric(100*shifted, "level-shift-%-of-candidates")
}

// BenchmarkFig3Elasticity regenerates Figure 3: the five-phase
// elasticity proof of concept. Reported metrics: mean eta during the
// backlogged-CCA phases versus the application-limited phases (shape:
// clear separation).
func BenchmarkFig3Elasticity(b *testing.B) {
	var etaElastic, etaInelastic float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig3(core.Fig3Config{
			PhaseDuration: 25 * time.Second,
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var el, inel, nel, ninel float64
		for _, p := range res.Phases {
			switch p.Name {
			case "reno", "bbr":
				el += p.MeanEta
				nel++
			default:
				inel += p.MeanEta
				ninel++
			}
		}
		etaElastic = el / nel
		etaInelastic = inel / ninel
	}
	b.ReportMetric(etaElastic, "eta-elastic-phases")
	b.ReportMetric(etaInelastic, "eta-inelastic-phases")
}

// BenchmarkFig3ElasticityTraced runs a shortened Figure 3 with the full
// observability scope attached — metrics registry plus a flight ring
// taking every event — so `benchstat` against BenchmarkFig3Elasticity
// bounds the end-to-end cost of instrumenting a whole scenario.
func BenchmarkFig3ElasticityTraced(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		var count eventCounter
		res, err := core.RunFig3(core.Fig3Config{
			PhaseDuration: 25 * time.Second,
			Seed:          1,
			Obs:           &obs.Scope{Reg: obs.NewRegistry(), Tracer: &count},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		events = count.n.Load()
	}
	b.ReportMetric(float64(events), "events")
}

// eventCounter is a tracer that only counts the events emitted to it.
type eventCounter struct{ n atomic.Int64 }

func (c *eventCounter) Emit(obs.Event) { c.n.Add(1) }

// BenchmarkAblationOracle scores the elasticity probe against the
// simulator's ground-truth contention oracle (abl-oracle). Reported
// metrics: accuracy and F1.
func BenchmarkAblationOracle(b *testing.B) {
	var acc, f1 float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunOracle(core.OracleConfig{Trials: 10, Duration: 30 * time.Second, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Score.Accuracy()
		f1 = res.Score.F1()
	}
	b.ReportMetric(acc, "accuracy")
	b.ReportMetric(f1, "f1")
}

// BenchmarkAblationJitter reproduces §5.2: contention on jitter under
// token-bucket shaping even when bandwidth is isolated. Reported
// metric: the smooth flow's p99-p50 RTT spread under the shaper.
func BenchmarkAblationJitter(b *testing.B) {
	var jitter float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunJitter(core.JitterConfig{Duration: 20 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Shaping == "shaper" {
				jitter = r.JitterMs
			}
		}
	}
	b.ReportMetric(jitter, "shaper-jitter-ms")
}

// BenchmarkExpCellular runs the §5.1 experiment: the throughput/delay
// trade-off of CCAs on a fading, isolated cellular link. Reported
// metrics: cubic's p95 self-inflicted delay vs copa's.
func BenchmarkExpCellular(b *testing.B) {
	var cubicDelay, copaDelay float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCellular(core.CellularConfig{Duration: 30 * time.Second, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			switch r.CCA {
			case "cubic":
				cubicDelay = r.SelfInflictedMs
			case "copa":
				copaDelay = r.SelfInflictedMs
			}
		}
	}
	b.ReportMetric(cubicDelay, "cubic-selfdelay-ms")
	b.ReportMetric(copaDelay, "copa-selfdelay-ms")
}

// BenchmarkExpTSLP runs the §4 comparison: TSLP flags congestion in
// both loaded scenarios; only the elasticity probe separates CCA
// contention from a non-yielding aggregate. Reported metrics: probe
// eta in each scenario.
func BenchmarkExpTSLP(b *testing.B) {
	var etaContention, etaAggregate float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunTSLP(core.TSLPConfig{Duration: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			switch r.Scenario {
			case "contention":
				etaContention = r.ProbeEta
			case "aggregate":
				etaAggregate = r.ProbeEta
			}
		}
	}
	b.ReportMetric(etaContention, "eta-contention")
	b.ReportMetric(etaAggregate, "eta-aggregate")
}

// BenchmarkExpAccess runs the §2.2 topology experiment: with short
// paths and a provisioned core, contention prerequisites hold only at
// access links and only between one user's own flows. Reported
// metrics: contending pairs by relationship.
func BenchmarkExpAccess(b *testing.B) {
	var intra, inter float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunAccess(core.AccessConfig{Duration: 20 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		intra = float64(res.IntraUserPairs)
		inter = float64(res.InterUserPairs)
	}
	b.ReportMetric(intra, "intra-user-pairs")
	b.ReportMetric(inter, "inter-user-pairs")
}

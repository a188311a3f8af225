package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestFig1IsolationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*Fig1Result](t, "fig1", scenario.Spec{DurationS: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: BBR takes well over half against Reno (Ware et al.).
	fifo := fig1Row(res, "reno", "bbr", QueueDropTail)
	if fifo == nil || fifo.Share2 < 0.6 {
		t.Errorf("BBR FIFO share = %+v, want > 0.6", fifo)
	}
	// FQ and per-user isolation: near-perfect fairness for every pair.
	for _, pair := range fig1Pairs {
		for _, q := range []QueueKind{QueueFQ, QueueUserIso} {
			row := fig1Row(res, pair[0], pair[1], q)
			if row == nil {
				t.Fatalf("missing row %v/%v", pair, q)
			}
			if row.Jain < 0.99 {
				t.Errorf("%s/%s under %s: jain = %.3f, want ~1", pair[0], pair[1], q, row.Jain)
			}
			if row.Harm1 > 0.05 {
				t.Errorf("%s/%s under %s: harm = %.3f", pair[0], pair[1], q, row.Harm1)
			}
		}
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "reno/bbr") {
		t.Error("table missing rows")
	}
}

// fig1Row returns the grid row for a pair and queue, or nil.
func fig1Row(r *Fig1Result, cca1, cca2 string, q QueueKind) *Fig1Row {
	for i := range r.Rows {
		if row := &r.Rows[i]; row.CCA1 == cca1 && row.CCA2 == cca2 && row.Queue == q {
			return row
		}
	}
	return nil
}

func TestFig2PipelineShape(t *testing.T) {
	res, err := runFig2(scenario.Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Total != 9984 {
		t.Fatalf("total = %d, want the paper's 9,984", an.Total)
	}
	// Majority excluded before the change-point stage (consistent with
	// Araújo et al.: most traffic is app/host/receiver limited).
	cand := an.ByCat["stable"] + an.ByCat["level-shift"]
	if frac := float64(cand) / float64(an.Total); frac > 0.45 {
		t.Errorf("candidate fraction = %.2f, want < 0.45", frac)
	}
	if res.Validation.Recall() < 0.7 || res.Validation.Precision() < 0.8 {
		t.Errorf("validation = %+v", res.Validation)
	}
	var buf bytes.Buffer
	res.WriteReport(&buf)
	if !strings.Contains(buf.String(), "level-shift") {
		t.Error("report incomplete")
	}
}

func TestOracleAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*OracleResult](t, "oracle", scenario.Spec{Trials: 12, DurationS: 30, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score.Accuracy() < 0.75 {
		var buf bytes.Buffer
		res.WriteTable(&buf)
		t.Errorf("oracle accuracy = %.2f\n%s", res.Score.Accuracy(), buf.String())
	}
}

func TestPulseSweepShowsFrequencyMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	var sep [2]float64
	for i, f := range []float64{2, 10} {
		row, err := pulseRow(f, 0.25, 25*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		sep[i] = row.Separation
	}
	sep2, sep10 := sep[0], sep[1]
	// 10 Hz pulses are inside the loaded RTT: separation collapses.
	if sep2 <= sep10 {
		t.Errorf("separation at 2Hz (%.3f) should beat 10Hz (%.3f)", sep2, sep10)
	}
	if sep2 < 0.3 {
		t.Errorf("2Hz separation = %.3f, want strong", sep2)
	}
}

func TestSubPacketRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sp := scenario.Spec{Flows: 8, DurationS: 20}
	thin, err := subPacketRow(sp, nil, 256e3)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := subPacketRow(sp, nil, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	// The sub-packet link is much less fair than the fat one (Chen et
	// al.'s timeout-driven starvation).
	if thin.Jain >= fat.Jain {
		t.Errorf("jain thin=%.3f fat=%.3f, want thin < fat", thin.Jain, fat.Jain)
	}
	if thin.Timeouts == 0 {
		t.Error("expected timeouts on the sub-packet link")
	}
}

func TestJitterUnderShaping(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*JitterResult](t, "jitter", scenario.Spec{DurationS: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]JitterRow{}
	for _, r := range res.Rows {
		byMode[r.Shaping] = r
	}
	// Fair queueing protects the smooth flow's delay; FIFO does not.
	if byMode["fq"].P99Ms >= byMode["fifo"].P99Ms {
		t.Errorf("fq p99 (%.1f) should beat fifo p99 (%.1f)",
			byMode["fq"].P99Ms, byMode["fifo"].P99Ms)
	}
	// §5.2: the token-bucket shaper still exposes the smooth flow to
	// burst-induced jitter.
	if byMode["shaper"].JitterMs < byMode["fq"].JitterMs {
		t.Errorf("shaper jitter (%.1f) should exceed fq jitter (%.1f)",
			byMode["shaper"].JitterMs, byMode["fq"].JitterMs)
	}
}

func TestCellularTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*CellularResult](t, "cellular", scenario.Spec{DurationS: 40, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]CellularRow{}
	for _, r := range res.Rows {
		rows[r.CCA] = r
	}
	// §5.1's trade-off: loss-based CCAs fill the deep buffer (high
	// delay, high utilization); delay-based CCAs hold delay down.
	if rows["cubic"].P95DelayMs <= rows["copa"].P95DelayMs {
		t.Errorf("cubic p95 (%.0fms) should exceed copa p95 (%.0fms)",
			rows["cubic"].P95DelayMs, rows["copa"].P95DelayMs)
	}
	if rows["cubic"].Utilization < 0.8 {
		t.Errorf("cubic utilization = %.2f", rows["cubic"].Utilization)
	}
	if rows["copa"].SelfInflictedMs > 100 {
		t.Errorf("copa self-inflicted delay = %.0fms", rows["copa"].SelfInflictedMs)
	}
	if rows["vegas"].Utilization < 0.5 {
		t.Errorf("vegas utilization = %.2f", rows["vegas"].Utilization)
	}
}

func TestAccessOnlyContentionPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*AccessResult](t, "access", scenario.Spec{DurationS: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterUserPairs != 0 {
		t.Errorf("inter-user contending pairs = %d, want 0 (core is provisioned)", res.InterUserPairs)
	}
	if res.IntraUserPairs != accessUsers {
		t.Errorf("intra-user contending pairs = %d, want %d", res.IntraUserPairs, accessUsers)
	}
	if res.CoreUtilization > 0.7 {
		t.Errorf("core utilization = %.2f, should stay under the 60-70%% planning bound", res.CoreUtilization)
	}
	// Every user saturates their own access link regardless.
	for u, tput := range res.PerUserTputBps {
		if tput < 0.9*res.sp.RateBps {
			t.Errorf("user %d aggregate = %.1f Mbit/s", u, tput/1e6)
		}
	}
}

func TestTSLPComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := runSpec[*TSLPResult](t, "tslp", scenario.Spec{DurationS: 35}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]TSLPRow{}
	for _, r := range res.Rows {
		rows[r.Scenario] = r
	}
	// TSLP flags both loaded scenarios; only the probe separates them.
	if !rows["contention"].TSLPCongested || !rows["aggregate"].TSLPCongested {
		t.Error("TSLP should flag both loaded scenarios as congested")
	}
	if rows["idle"].TSLPCongested {
		t.Error("TSLP flagged an idle link")
	}
	if !rows["contention"].ProbeElastic {
		t.Errorf("probe missed the contention scenario (eta=%.3f)", rows["contention"].ProbeEta)
	}
	if rows["aggregate"].ProbeElastic {
		t.Errorf("probe called the aggregate elastic (eta=%.3f)", rows["aggregate"].ProbeEta)
	}
	if !rows["aggregate"].ProbeOverloaded {
		t.Error("aggregate should be flagged overloaded")
	}
	if rows["idle"].ProbeElastic || rows["idle"].ProbeOverloaded {
		t.Error("idle link misclassified")
	}
}

package core

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func init() {
	scenario.Register(scenario.Experiment{
		Name:        "oracle",
		Description: "probe-accuracy study: elasticity verdicts scored against the ground-truth oracle",
		Defaults:    scenario.Spec{Trials: 30, Seed: 1},
		Run:         run(runOracle),
		Table:       table[*OracleResult](),
	})
}

// oracleDefaults are the study's size: 30 trials of 40 s each.
var oracleDefaults = scenario.Spec{Trials: 30, DurationS: 40}

// OracleTrial is one scenario's outcome.
type OracleTrial struct {
	// Cross describes the cross-traffic kind.
	Cross string
	// RateBps and RTT describe the link.
	RateBps float64
	RTT     time.Duration
	// TruthElastic is the ground truth: does backlogged CCA-driven
	// cross traffic share the probe's queue?
	TruthElastic bool
	// ProbeElastic is the probe's majority verdict.
	ProbeElastic bool
	// MeanEta is the mean elasticity across windows.
	MeanEta float64
}

// OracleResult is the study outcome.
type OracleResult struct {
	Trials []OracleTrial
	Score  contention.Score
}

// runOracle executes the probe-accuracy study: a battery of randomized
// scenarios drawn from the spec's seed, where the simulator's
// ground-truth contention oracle scores the elasticity probe's verdicts
// — the validation the paper's proposed Internet-scale study cannot
// run, and the reason the emulator exists.
func runOracle(sp scenario.Spec, sc *obs.Scope) (*OracleResult, error) {
	sp = withDefaults(sp, oracleDefaults)
	rng := rand.New(rand.NewSource(sp.Seed))
	res := &OracleResult{}

	kinds := []string{"none", "reno", "cubic", "bbr", "video", "cbr", "short"}
	for i := 0; i < sp.Trials; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		rate := []float64{24e6, 48e6, 96e6}[rng.Intn(3)]
		owd := []time.Duration{20, 35, 50}[rng.Intn(3)] * time.Millisecond
		trial, err := runOracleTrial(sc, sp.Duration(), rng.Int63(), kind, rate, owd)
		if err != nil {
			return nil, err
		}
		res.Trials = append(res.Trials, trial)
		res.Score.Add(trial.TruthElastic, trial.ProbeElastic)
	}
	return res, nil
}

func runOracleTrial(sc *obs.Scope, dur time.Duration, seed int64, kind string, rate float64, owd time.Duration) (OracleTrial, error) {
	cross := flow{id: 2, user: crossUser, kind: kind, shortRate: 4}
	switch kind {
	case "none":
		cross.kind = "idle"
	case "short":
		cross.id = 1000
	case "cbr":
		// The rate is the first draw of the trial's stream, which the
		// cell's generator replays for "short" trials.
		cross.cbrBps = (0.2 + 0.4*sim.NewRand(seed).Float64()) * rate
	}
	spec := cellSpec{hops: []hop{{rateBps: rate, delay: owd}}, seed: seed, obs: sc}
	v, err := probeAgainst(spec, paperProbe(rate), cross, 10*time.Second, dur)
	if err != nil {
		return OracleTrial{}, fmt.Errorf("core: oracle: %w", err)
	}
	return OracleTrial{
		Cross: kind, RateBps: rate, RTT: 2 * owd,
		TruthElastic: traffic.ElasticKind(kind),
		ProbeElastic: v.Elastic,
		MeanEta:      v.Mean,
	}, nil
}

// WriteTable renders per-trial rows and the aggregate score.
func (r *OracleResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "oracle study: elasticity probe vs ground truth, %d trials\n", len(r.Trials))
	fmt.Fprintf(w, "%-7s %12s %7s %7s %9s %8s\n", "cross", "link", "rtt", "truth", "verdict", "mean-eta")
	for _, t := range r.Trials {
		fmt.Fprintf(w, "%-7s %12s %7v %7v %9v %8.3f\n",
			t.Cross, FmtBps(t.RateBps), t.RTT, t.TruthElastic, t.ProbeElastic, t.MeanEta)
	}
	fmt.Fprintf(w, "\nprecision=%.3f recall=%.3f accuracy=%.3f f1=%.3f (tp=%d fp=%d tn=%d fn=%d)\n",
		r.Score.Precision(), r.Score.Recall(), r.Score.Accuracy(), r.Score.F1(),
		r.Score.TP, r.Score.FP, r.Score.TN, r.Score.FN)
}

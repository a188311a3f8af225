package scenario_test

import (
	"bytes"
	"context"
	"testing"

	_ "repro/internal/core" // registers the duel
	"repro/internal/obs"
	"repro/internal/scenario"
)

// duelGrid is the CCA x queue x fault grid the acceptance sweep runs:
// every point is a real two-flow simulation through the full qdisc and
// fault stack.
func duelGrid(t *testing.T) []scenario.Spec {
	t.Helper()
	g := scenario.Grid{
		Base:          scenario.Spec{Experiment: "duel", DurationS: 2, Seed: 1},
		Pairs:         [][2]string{{"reno", "bbr"}, {"reno", "cubic"}},
		Queues:        []string{"droptail", "fq"},
		FaultProfiles: []string{"clean", "wifi-bursty"},
		DeriveSeeds:   true,
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestSweepDeterminism is the golden guarantee: the same specs run
// sequentially and across a 4-worker pool produce byte-identical
// canonical results, slot by slot and as a whole array.
func TestSweepDeterminism(t *testing.T) {
	specs := duelGrid(t)

	seqR := &scenario.Runner{Workers: 1}
	seq, err := seqR.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	parR := &scenario.Runner{Workers: 4}
	par, err := parR.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range specs {
		if seq[i].Err != "" {
			t.Fatalf("sequential run %d failed: %s", i, seq[i].Err)
		}
		if par[i].Err != "" {
			t.Fatalf("parallel run %d failed: %s", i, par[i].Err)
		}
		if !bytes.Equal(seq[i].Result, par[i].Result) {
			t.Errorf("run %d (%s) diverged:\nseq: %s\npar: %s",
				i, seq[i].Hash[:12], seq[i].Result, par[i].Result)
		}
		if seq[i].Hash != par[i].Hash {
			t.Errorf("run %d hash diverged", i)
		}
	}

	a, err := scenario.CanonicalJSON(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.CanonicalJSON(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("sweep arrays serialize differently")
	}
}

// TestSweepDeterminismWithScopes re-runs the parallel sweep with
// per-run observability scopes: private metric registries must not
// perturb results (they are excluded from canonical encoding), and
// distinct scopes mean the race detector sees no sharing.
func TestSweepDeterminismWithScopes(t *testing.T) {
	specs := duelGrid(t)

	plain := &scenario.Runner{Workers: 4}
	base, err := plain.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	scoped := &scenario.Runner{Workers: 4, NewScope: func(scenario.Spec) *obs.Scope { return obs.NewScope() }}
	withObs, err := scoped.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !bytes.Equal(base[i].Result, withObs[i].Result) {
			t.Fatalf("run %d: observability changed the result", i)
		}
	}
}

// TestSweepStreamWorkerDeterminism extends the determinism golden to
// the streaming path: a 1-worker and an 8-worker stream over the duel
// grid yield byte-identical result sequences, and both match the
// materialized Sweep of the same grid.
func TestSweepStreamWorkerDeterminism(t *testing.T) {
	specs := duelGrid(t)

	stream := func(workers int) []scenario.RunResult {
		t.Helper()
		src, err := scenario.Grid{
			Base:          scenario.Spec{Experiment: "duel", DurationS: 2, Seed: 1},
			Pairs:         [][2]string{{"reno", "bbr"}, {"reno", "cubic"}},
			Queues:        []string{"droptail", "fq"},
			FaultProfiles: []string{"clean", "wifi-bursty"},
			DeriveSeeds:   true,
		}.Source()
		if err != nil {
			t.Fatal(err)
		}
		r := &scenario.Runner{Workers: workers}
		var results []scenario.RunResult
		if err := r.SweepStream(context.Background(), src, func(res scenario.RunResult) error {
			results = append(results, res)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return results
	}
	w1 := stream(1)
	w8 := stream(8)

	sweep, err := (&scenario.Runner{Workers: 4}).Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != len(specs) || len(w8) != len(specs) {
		t.Fatalf("stream lengths %d/%d, want %d", len(w1), len(w8), len(specs))
	}
	for i := range specs {
		if w1[i].Err != "" || w8[i].Err != "" {
			t.Fatalf("run %d failed: %q / %q", i, w1[i].Err, w8[i].Err)
		}
		if !bytes.Equal(w1[i].Result, w8[i].Result) {
			t.Errorf("run %d diverged between 1 and 8 workers:\n1: %s\n8: %s", i, w1[i].Result, w8[i].Result)
		}
		if !bytes.Equal(w1[i].Result, sweep[i].Result) {
			t.Errorf("run %d: streamed result diverged from materialized Sweep", i)
		}
	}
	a, err := scenario.CanonicalJSON(w1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.CanonicalJSON(w8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("streamed result arrays serialize differently across worker counts")
	}
}

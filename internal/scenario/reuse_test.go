package scenario_test

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/faults"
	"repro/internal/hunt"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// reuseUnit is specs that run back to back in every order the test
// tries: a golden spec alone, a corpus entry's spec and its clean twin,
// or the queued-packets pair.
type reuseUnit struct {
	name  string
	specs []scenario.Spec
}

// reuseUnits is every golden spec, every hunt corpus entry, and a pair
// whose first cell ends with packets queued in fq_codel, held by the
// reorderer and in flight, followed by a clean droptail cell that
// inherits them on a reused engine.
func reuseUnits(t *testing.T) []reuseUnit {
	names, specs := scenario.GoldenSpecs()
	var units []reuseUnit
	for i, sp := range specs {
		units = append(units, reuseUnit{names[i], []scenario.Spec{sp}})
	}
	entries, err := hunt.LoadCorpus("../hunt/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		obj, err := hunt.LookupObjective(e.Objective)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Params
		p.Probe = obj.Probe
		sp := e.Genome.Decode(p)
		u := reuseUnit{"corpus/" + e.Name, []scenario.Spec{sp}}
		if obj.Twin {
			clean := sp
			clean.Fault = nil
			u.specs = append(u.specs, clean)
		}
		units = append(units, u)
	}
	return append(units, reuseUnit{"queued-then-clean", []scenario.Spec{
		{Experiment: "huntcell", CCAs: []string{"cubic"}, Seed: 5, FaultSeed: 3, Queue: "fq_codel",
			Fault: &faults.Config{DupProb: 0.05, ReorderProb: 0.1, ReorderDelayMs: 30},
			Cross: []traffic.Phase{{Kind: "bbr", DurS: 2}}},
		{Experiment: "duel", CCAs: []string{"reno", "cubic"}, DurationS: 2, Queue: "droptail"},
	}})
}

// record is what a run must reproduce byte for byte: its canonical
// result record and its rendered table.
func record(t *testing.T, res scenario.RunResult) []byte {
	t.Helper()
	if res.Err != "" {
		t.Fatalf("%s: %s", res.Spec.Experiment, res.Err)
	}
	rec, err := scenario.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := scenario.Lookup(res.Spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	exp.Table(&table, res.Value())
	return append(rec, table.Bytes()...)
}

// TestPooledEnginesMatchFresh is the leak gate for engine reuse: cells
// run on engines that earlier cells left behind, in two seeded
// shuffled orders, must produce exactly the bytes they produce on a
// new engine. With one P and the collector off (a collection empties
// the pool) every released engine is the next cell's.
func TestPooledEnginesMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden spec three times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	r := &scenario.Runner{Workers: 1}
	units := reuseUnits(t)

	// Fresh: two collections empty the engine pool before each cell.
	fresh := map[string][][]byte{}
	for _, u := range units {
		for _, sp := range u.specs {
			runtime.GC()
			runtime.GC()
			fresh[u.name] = append(fresh[u.name], record(t, r.Run(ctx, sp)))
		}
	}

	for pass := int64(1); pass <= 2; pass++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		order := rand.New(rand.NewSource(pass)).Perm(len(units))
		var specs []scenario.Spec
		for _, i := range order {
			specs = append(specs, units[i].specs...)
		}
		results, err := r.Sweep(ctx, specs)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			u := units[i]
			for k := range u.specs {
				if got := record(t, results[0]); !bytes.Equal(got, fresh[u.name][k]) {
					t.Errorf("pass %d: %s spec %d: pooled run differs from a fresh engine's", pass, u.name, k)
				}
				results = results[1:]
			}
		}
	}
}

package scenario

import (
	"reflect"
	"testing"
)

// TestGridExpandOrder pins the canonical expansion order against a
// hand-rolled nested loop, so a refactor of Expand cannot silently
// reorder sweeps (result arrays are compared byte-for-byte
// downstream).
func TestGridExpandOrder(t *testing.T) {
	g := Grid{
		Base:          Spec{Experiment: "duel", Seed: 3},
		Pairs:         [][2]string{{"reno", "bbr"}, {"cubic", "copa"}},
		Queues:        []string{"droptail", "fq", "fq_codel"},
		FaultProfiles: []string{"clean", "wifi-bursty"},
		Seeds:         []int64{1, 2},
	}
	expanded, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// The historical nested-loop order: pairs, then queues, then
	// faults, then seeds, innermost fastest.
	var want []Spec
	for _, p := range g.Pairs {
		for _, q := range g.Queues {
			for _, f := range g.FaultProfiles {
				for _, s := range g.Seeds {
					sp := g.Base
					sp.CCAs = []string{p[0], p[1]}
					sp.Queue = q
					if f != "clean" {
						sp.FaultProfile = f
					}
					sp.Seed = s
					want = append(want, sp)
				}
			}
		}
	}
	if !reflect.DeepEqual(expanded, want) {
		t.Fatal("expansion order diverged from the historical nested loop")
	}
}

// TestGridExpandEmptyAxes checks the identity contribution of empty
// axes: a base-only grid is a single spec, and partially empty axes
// multiply correctly.
func TestGridExpandEmptyAxes(t *testing.T) {
	g := Grid{Base: Spec{Experiment: "duel", Seed: 7, CCAs: []string{"reno", "bbr"}}}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0], g.Base) {
		t.Fatalf("base-only grid expanded to %+v", specs)
	}

	g.Seeds = []int64{1, 2, 3}
	specs, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3", len(specs))
	}
	for i, sp := range specs {
		if sp.Seed != int64(i+1) {
			t.Fatalf("spec %d seed %d", i, sp.Seed)
		}
	}
}

func TestSliceSource(t *testing.T) {
	specs := []Spec{
		{Experiment: "test-ok", Seed: 1},
		{Experiment: "test-ok", Seed: 2},
	}
	src := SliceSource(specs)
	if n, known := src.Count(); !known || n != 2 {
		t.Fatalf("Count() = %d,%v", n, known)
	}
	var got []Spec
	for {
		sp, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, sp)
	}
	if !reflect.DeepEqual(got, specs) {
		t.Fatalf("collected %+v", got)
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("exhausted slice source yielded another spec")
	}
}

// errAfterSource yields n specs, then fails. Count is deliberately
// unknown: mid-stream failure and missing count hints travel together
// in practice (a spec stream read from a pipe).
type errAfterSource struct {
	n   int
	err error
	i   int
}

func (s *errAfterSource) Next() (Spec, bool, error) {
	if s.i >= s.n {
		return Spec{}, false, s.err
	}
	s.i++
	return Spec{Experiment: "test-ok", Seed: int64(s.i)}, true, nil
}

func (s *errAfterSource) Count() (int, bool) { return 0, false }

// hideCount wraps a source and withholds its count hint, for testing
// the unknown-total paths against sources that would otherwise know.
type hideCount struct{ inner SpecSource }

func (h hideCount) Next() (Spec, bool, error) { return h.inner.Next() }
func (h hideCount) Count() (int, bool)        { return 0, false }

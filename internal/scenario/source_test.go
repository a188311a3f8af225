package scenario

import (
	"errors"
	"reflect"
	"testing"
)

// TestGridSourceMatchesExpand pins the canonical expansion order: the
// streaming source and the materialized expansion must agree element
// for element, and the order itself is pinned against a hand-rolled
// nested loop so a refactor of either cannot silently reorder sweeps
// (result arrays are compared byte-for-byte downstream).
func TestGridSourceMatchesExpand(t *testing.T) {
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
	src, err := g.Source()
	if err != nil {
		t.Fatal(err)
	}
	if n, known := src.Count(); !known || n != len(expanded) {
		t.Fatalf("Count() = %d,%v; want %d,true", n, known, len(expanded))
	}
	streamed, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expanded, streamed) {
		t.Fatal("streamed specs differ from Expand")
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

// TestGridSourceEmptyAxes checks the identity contribution of empty
// axes: a base-only grid is a single spec, and partially empty axes
// multiply correctly.
func TestGridSourceEmptyAxes(t *testing.T) {
	g := Grid{Base: Spec{Experiment: "duel", Seed: 7, CCAs: []string{"reno", "bbr"}}}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0], g.Base) {
		t.Fatalf("base-only grid expanded to %+v", specs)
	}

	g.Seeds = []int64{1, 2, 3}
	src, err := g.Source()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := src.Count(); n != 3 {
		t.Fatalf("Count() = %d, want 3", n)
	}
	specs, err = Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if sp.Seed != int64(i+1) {
			t.Fatalf("spec %d seed %d", i, sp.Seed)
		}
	}
	// The source is exhausted for good: further Next calls stay done.
	if _, ok, _ := src.Next(); ok {
		t.Fatal("exhausted source yielded another spec")
	}
}

// TestGridSourceValidatesUpFront mirrors Expand's error cases on the
// streaming path: a bad grid must fail before the sweep starts.
func TestGridSourceValidatesUpFront(t *testing.T) {
	if _, err := (Grid{}).Source(); err == nil {
		t.Fatal("no error for grid without base.experiment")
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
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
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

func TestCollectSurfacesSourceError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Collect(&errAfterSource{n: 2, err: boom}); !errors.Is(err, boom) {
		t.Fatalf("Collect error = %v, want boom", err)
	}
}

// hideCount wraps a source and withholds its count hint, for testing
// the unknown-total paths against sources that would otherwise know.
type hideCount struct{ inner SpecSource }

func (h hideCount) Next() (Spec, bool, error) { return h.inner.Next() }
func (h hideCount) Count() (int, bool)        { return 0, false }

package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCanonicalJSONStable(t *testing.T) {
	sp := Spec{Experiment: "duel", Seed: 7, DurationS: 2.5, CCAs: []string{"reno", "bbr"}}
	a, err := CanonicalJSON(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encoding not stable:\n%s\n%s", a, b)
	}
	if bytes.HasSuffix(a, []byte("\n")) {
		t.Fatalf("canonical encoding keeps a trailing newline: %q", a)
	}
	// Map keys must come out sorted regardless of insertion order.
	m1, _ := CanonicalJSON(map[string]int{"b": 2, "a": 1, "c": 3})
	m2, _ := CanonicalJSON(map[string]int{"c": 3, "a": 1, "b": 2})
	if !bytes.Equal(m1, m2) {
		t.Fatalf("map encodings differ: %s vs %s", m1, m2)
	}
	// HTML escaping must be off: queue names etc. stay readable.
	h, _ := CanonicalJSON(map[string]string{"k": "a<b>&c"})
	if !bytes.Contains(h, []byte("a<b>&c")) {
		t.Fatalf("HTML escaping leaked into canonical JSON: %s", h)
	}
}

func TestSpecHash(t *testing.T) {
	base := Spec{Experiment: "duel", Seed: 1, CCAs: []string{"reno", "bbr"}}
	if got, want := base.Hash(), base.Hash(); got != want {
		t.Fatalf("hash not stable: %s vs %s", got, want)
	}
	if len(base.Hash()) != 64 {
		t.Fatalf("hash is not hex sha-256: %q", base.Hash())
	}

	// Any semantic change must change the hash.
	variants := []Spec{
		{Experiment: "duel", Seed: 2, CCAs: []string{"reno", "bbr"}},
		{Experiment: "duel", Seed: 1, CCAs: []string{"bbr", "reno"}},
		{Experiment: "fig3", Seed: 1, CCAs: []string{"reno", "bbr"}},
		{Experiment: "duel", Seed: 1, CCAs: []string{"reno", "bbr"}, FaultProfile: "wifi-bursty"},
		{Experiment: "duel", Seed: 1, CCAs: []string{"reno", "bbr"}, DurationS: 30},
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Fatalf("hash collision for variant %+v", v)
		}
		seen[h] = true
	}

	// Zero-valued optional fields hash like omitted ones (omitempty
	// drops both), so a spec round-tripped through JSON keeps its hash.
	explicit := Spec{Experiment: "duel", Seed: 1, CCAs: []string{"reno", "bbr"}, FaultSeed: 0, Trials: 0}
	if explicit.Hash() != base.Hash() {
		t.Fatalf("zero-valued optionals changed the hash")
	}
}

func TestParseGridRejectsUnknownFields(t *testing.T) {
	_, err := ParseGrid([]byte(`{"base":{"experiment":"duel"},"quues":["fq"]}`))
	if err == nil || !strings.Contains(err.Error(), "quues") {
		t.Fatalf("typo'd axis not rejected: %v", err)
	}
}

func TestGridExpand(t *testing.T) {
	g := Grid{
		Base:          Spec{Experiment: "duel", DurationS: 2},
		Pairs:         [][2]string{{"reno", "bbr"}, {"reno", "cubic"}},
		Queues:        []string{"droptail", "fq"},
		FaultProfiles: []string{"clean", "wifi-bursty"},
		Seeds:         []int64{1, 2, 3},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(specs) != want {
		t.Fatalf("expanded %d specs, want %d", len(specs), want)
	}
	// Expansion order is canonical: the seed axis varies fastest, the
	// cca/pair axis slowest.
	if specs[0].Seed != 1 || specs[1].Seed != 2 || specs[2].Seed != 3 {
		t.Fatalf("seed axis not innermost: %+v", specs[:3])
	}
	if specs[0].CCAs[1] != "bbr" || specs[len(specs)-1].CCAs[1] != "cubic" {
		t.Fatalf("pair axis not outermost")
	}
	// "clean" maps to no fault profile.
	for _, sp := range specs {
		if sp.FaultProfile == "clean" {
			t.Fatalf("clean profile leaked into a spec")
		}
	}
	// Expansion is deterministic.
	again, _ := g.Expand()
	for i := range specs {
		if specs[i].Hash() != again[i].Hash() {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
}

func TestGridExpandDeriveSeeds(t *testing.T) {
	g := Grid{
		Base:          Spec{Experiment: "duel", Seed: 42, DurationS: 2},
		Pairs:         [][2]string{{"reno", "bbr"}, {"reno", "cubic"}},
		Queues:        []string{"droptail", "fq"},
		FaultProfiles: []string{"clean", "wifi-bursty"},
		DeriveSeeds:   true,
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for _, sp := range specs {
		if seeds[sp.Seed] {
			t.Fatalf("derived seed %d repeats", sp.Seed)
		}
		seeds[sp.Seed] = true
		if sp.FaultProfile != "" && sp.FaultSeed == 0 {
			t.Fatalf("faulted point got no derived fault seed: %+v", sp)
		}
		if sp.FaultProfile == "" && sp.FaultSeed != 0 {
			t.Fatalf("clean point got a fault seed: %+v", sp)
		}
	}
	// Derived seeds depend only on (base seed, point), not expansion
	// order: re-expanding yields the same seeds.
	again, _ := g.Expand()
	for i := range specs {
		if specs[i].Seed != again[i].Seed {
			t.Fatalf("derived seed unstable at %d", i)
		}
	}
	// A different base seed moves every point.
	g2 := g
	g2.Base.Seed = 43
	other, _ := g2.Expand()
	same := 0
	for i := range specs {
		if specs[i].Seed == other[i].Seed {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d points kept their seed across base-seed change", same)
	}
}

func TestGridExpandErrors(t *testing.T) {
	if _, err := (Grid{}).Expand(); err == nil {
		t.Fatal("grid without base.experiment expanded")
	}
}

// TestLedgerSpecHashesArePinned: the benchmark's spec files keep their
// hashes, so removing a spec key (omitempty, never set by them) or
// reshaping Spec cannot move what the ledger runs or caches.
func TestLedgerSpecHashesArePinned(t *testing.T) {
	for name, want := range map[string]string{
		"fig3.json":     "dfd58196438acc618804f3440774a8fbd612d4a2e311201d252f95c3b2844462",
		"manyflow.json": "6ed68b6a8aca83eeab90e9b74082672bff72220f6a9a2fd89f9c799b42fa628f",
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", "ledger", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sp.Hash(); got != want {
			t.Errorf("%s hashes to %s, want %s", name, got, want)
		}
	}
}

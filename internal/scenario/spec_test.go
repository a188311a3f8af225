package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/traffic"
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

// TestResolve: the resolver fills each defaultable key the spec leaves
// at zero, keeps the ones it sets, never fills seeds, faults, Cross,
// Probe or FluidAbove, and refuses a set value the cell cannot run
// (negative, or a length that converts to zero) instead of running the
// default in its place.
func TestResolve(t *testing.T) {
	def := Spec{DurationS: 30, RateBps: 48e6, RTTMs: 40, Queue: "droptail", BufferBDP: 2,
		CCAs: []string{"reno", "bbr"}, Phases: []string{"reno", "cbr"}, PhaseDurationS: 45, Flows: 8, Trials: 3,
		Seed: 1, FaultSeed: 1, FaultProfile: "wifi-bursty", Fault: &faults.Config{LossProb: 0.1},
		Cross: []traffic.Phase{{Kind: "bbr", DurS: 1}}, Probe: true, FluidAbove: 4}
	filled := Spec{Experiment: "x", DurationS: 30, RateBps: 48e6, RTTMs: 40, Queue: "droptail", BufferBDP: 2,
		CCAs: []string{"reno", "bbr"}, Phases: []string{"reno", "cbr"}, PhaseDurationS: 45, Flows: 8, Trials: 3}
	set := Spec{Experiment: "x", DurationS: 1, RateBps: 1e6, RTTMs: 1e-5, Queue: "fq", BufferBDP: 0.5,
		CCAs: []string{"cubic"}, Phases: []string{"idle"}, PhaseDurationS: 1e-9, Flows: 1, Trials: 1,
		Seed: 9, FaultSeed: 9}
	for _, tc := range []struct {
		name    string
		sp      Spec
		want    Spec
		wantErr string
	}{
		{name: "empty spec", sp: Spec{Experiment: "x"}, want: filled},
		{name: "every key set", sp: set, want: set},
		{name: "empty defaults", sp: Spec{Experiment: "x", Seed: 3}, want: Spec{Experiment: "x", Seed: 3}},
		{name: "negative duration", sp: Spec{DurationS: -1}, wantErr: "duration_s -1"},
		{name: "duration under 1ns", sp: Spec{DurationS: 1e-10}, wantErr: "duration_s 1e-10"},
		{name: "negative rate", sp: Spec{RateBps: -48e6}, wantErr: "rate_bps -4.8e+07"},
		{name: "negative rtt", sp: Spec{RTTMs: -5}, wantErr: "rtt_ms -5"},
		{name: "rtt of 1ns", sp: Spec{RTTMs: 1e-6}, wantErr: "rtt_ms 1e-06"},
		{name: "negative buffer", sp: Spec{BufferBDP: -2}, wantErr: "buffer_bdp -2"},
		{name: "negative phase", sp: Spec{PhaseDurationS: -45}, wantErr: "phase_duration_s -45"},
		{name: "phase under 1ns", sp: Spec{PhaseDurationS: 1e-10}, wantErr: "phase_duration_s 1e-10"},
		{name: "negative flows", sp: Spec{Flows: -1}, wantErr: "flows -1"},
		{name: "negative trials", sp: Spec{Trials: -3}, wantErr: "trials -3"},
		{name: "overflowing duration", sp: Spec{DurationS: 1e300}, wantErr: "duration_s 1e+300"},
	} {
		d := def
		if tc.name == "empty defaults" {
			d = Spec{}
		}
		got, err := resolve(tc.sp, d)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: resolved to %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = resolve(Spec{Experiment: "x"}, def) }); n != 0 {
		t.Errorf("resolve allocates %v times, want 0", n)
	}
}

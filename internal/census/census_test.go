package census

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// testModel is a census small enough to execute for real in a unit
// test: modest rates, short cells, every queue/fault class reachable.
func testModel(n int) Model {
	return Model{
		Name:      "test-population",
		Seed:      7,
		N:         n,
		DurationS: 1,
		CCAMix: []Weighted{
			{Name: "reno", Weight: 0.5},
			{Name: "bbr", Weight: 0.3},
			{Name: "cubic", Weight: 0.2},
		},
		QueueMix: []Weighted{
			{Name: "droptail", Weight: 0.7},
			{Name: "fq", Weight: 0.3},
		},
		FaultMix: []Weighted{
			{Name: "clean", Weight: 0.8},
			{Name: "wifi-bursty", Weight: 0.2},
		},
		Rate:   Dist{Kind: "loguniform", Lo: 5e6, Hi: 20e6},
		RTT:    Dist{Kind: "uniform", Lo: 20, Hi: 60},
		Buffer: Dist{Kind: "uniform", Lo: 1, Hi: 2},
	}
}

func TestModelHashStable(t *testing.T) {
	m := testModel(100)
	if m.Hash() != m.Hash() {
		t.Fatal("model hash is not stable")
	}
	m2 := testModel(100)
	m2.Seed++
	if m.Hash() == m2.Hash() {
		t.Fatal("seed change did not change the model hash")
	}
	m3 := testModel(101)
	if m.Hash() == m3.Hash() {
		t.Fatal("population change did not change the model hash")
	}
}

// TestSpecAtIsPure: spec i depends only on (model, i) — repeated
// sampling, source iteration, and shard-sliced sources all agree
// byte-for-byte.
func TestSpecAtIsPure(t *testing.T) {
	m := testModel(64)
	full, err := m.Source(0, m.N)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := scenario.Collect(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != m.N {
		t.Fatalf("full source yielded %d specs, want %d", len(whole), m.N)
	}
	for i, sp := range whole {
		if sp.Hash() != m.SpecAt(i).Hash() {
			t.Fatalf("spec %d differs between Source iteration and SpecAt", i)
		}
		if sp.Experiment != "duel" || len(sp.CCAs) != 2 {
			t.Fatalf("spec %d is not a duel cell: %+v", i, sp)
		}
	}

	// Any sharding regenerates the identical slice.
	for _, shards := range []int{1, 3, 5} {
		var got []scenario.Spec
		for k := 0; k < shards; k++ {
			lo, hi, err := ShardRange(m.N, k, shards)
			if err != nil {
				t.Fatal(err)
			}
			src, err := m.Source(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			part, err := scenario.Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if n, known := (&source{h: hashedModel{m: m, hash: m.Hash()}, i: lo, hi: hi}).Count(); !known || n != hi-lo {
				t.Fatalf("shard %d/%d count hint %d (known=%v), want %d", k, shards, n, known, hi-lo)
			}
			got = append(got, part...)
		}
		a, _ := scenario.CanonicalJSON(whole)
		b, _ := scenario.CanonicalJSON(got)
		if !bytes.Equal(a, b) {
			t.Fatalf("%d-shard regeneration differs from the full population", shards)
		}
	}
}

func TestShardRangeTiles(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, m := range []int{1, 2, 3, 7, 13} {
			next := 0
			for k := 0; k < m; k++ {
				lo, hi, err := ShardRange(n, k, m)
				if err != nil {
					t.Fatal(err)
				}
				if lo != next || hi < lo {
					t.Fatalf("shard %d/%d of %d is [%d, %d), want to start at %d", k, m, n, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("%d shards of %d cover [0, %d)", m, n, next)
			}
		}
	}
	if _, _, err := ShardRange(10, 3, 3); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, _, err := ShardRange(10, -1, 3); err == nil {
		t.Fatal("negative shard accepted")
	}
}

func TestDistSample(t *testing.T) {
	if v := (Dist{Kind: "const", Lo: 3}).Sample(0.7); v != 3 {
		t.Fatalf("const sampled %g", v)
	}
	if v := (Dist{Kind: "uniform", Lo: 10, Hi: 20}).Sample(0.5); v != 15 {
		t.Fatalf("uniform midpoint %g", v)
	}
	v := (Dist{Kind: "loguniform", Lo: 1, Hi: 100}).Sample(0.5)
	if math.Abs(v-10) > 1e-9 {
		t.Fatalf("loguniform midpoint %g, want 10", v)
	}
}

func TestPickWeighted(t *testing.T) {
	ws := []Weighted{{Name: "a", Weight: 1}, {Name: "b", Weight: 3}}
	if got := pick(ws, 0.0); got != "a" {
		t.Fatalf("pick(0) = %s", got)
	}
	if got := pick(ws, 0.24); got != "a" {
		t.Fatalf("pick(0.24) = %s", got)
	}
	if got := pick(ws, 0.26); got != "b" {
		t.Fatalf("pick(0.26) = %s", got)
	}
	if got := pick(ws, 0.999999); got != "b" {
		t.Fatalf("pick(~1) = %s", got)
	}
}

func TestParseModelRejects(t *testing.T) {
	if _, err := ParseModel([]byte(`{"n": 10, "duration_s": 1, "ccamix_typo": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	m := testModel(10)
	m.N = 0
	b, _ := json.Marshal(m)
	if _, err := ParseModel(b); err == nil {
		t.Fatal("zero population accepted")
	}
	m = testModel(10)
	m.QueueMix = nil
	b, _ = json.Marshal(m)
	if _, err := ParseModel(b); err == nil {
		t.Fatal("empty queue mix accepted")
	}
	m = testModel(10)
	m.Rate = Dist{Kind: "loguniform", Lo: 0, Hi: 10}
	b, _ = json.Marshal(m)
	if _, err := ParseModel(b); err == nil {
		t.Fatal("loguniform from 0 accepted")
	}
	// A duel reads a rate, RTT or buffer of 0 as its default, so an axis
	// that can sample one would run a cell the report misnames.
	for _, tc := range []struct {
		name string
		set  func(*Model)
	}{
		{"const 0 rate", func(m *Model) { m.Rate = Dist{Kind: "const", Lo: 0} }},
		{"kindless 0 rate", func(m *Model) { m.Rate = Dist{} }},
		{"negative const rtt", func(m *Model) { m.RTT = Dist{Kind: "const", Lo: -5} }},
		{"uniform rtt from 0", func(m *Model) { m.RTT = Dist{Kind: "uniform", Lo: 0, Hi: 50} }},
		{"uniform buffer from below 0", func(m *Model) { m.Buffer = Dist{Kind: "uniform", Lo: -1, Hi: 2} }},
		{"const 0 buffer", func(m *Model) { m.Buffer = Dist{Kind: "const"} }},
		{"overflowing loguniform rate", func(m *Model) { m.Rate = Dist{Kind: "loguniform", Lo: 1, Hi: math.MaxFloat64} }},
	} {
		m = testModel(10)
		tc.set(&m)
		b, _ = json.Marshal(m)
		if _, err := ParseModel(b); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// A valid model round-trips and keeps its hash.
	m = testModel(10)
	b, _ = json.Marshal(m)
	back, err := ParseModel(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != m.Hash() {
		t.Fatal("model hash changed across a JSON round trip")
	}
}

// duelJSON fabricates a canonical duel result for classifier tests.
// The link it ran on is the spec's, not the record's.
func duelJSON(t *testing.T, t1, t2, jain float64) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"Tput1Bps": t1,
		"Tput2Bps": t2,
		"Jain":     jain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClassify(t *testing.T) {
	spec := func(queue, fault string) scenario.Spec {
		return scenario.Spec{Experiment: "duel", Queue: queue, FaultProfile: fault, RateBps: 10e6}
	}
	cases := []struct {
		name string
		res  scenario.RunResult
		want Classification
	}{
		{
			name: "failed run is inconclusive",
			res:  scenario.RunResult{Spec: spec("droptail", "clean"), Err: "boom"},
			want: ClassInconclusive,
		},
		{
			name: "undecodable result is inconclusive",
			res:  scenario.RunResult{Spec: spec("droptail", "clean"), Result: []byte("{")},
			want: ClassInconclusive,
		},
		{
			name: "spec without a rate is inconclusive",
			res: scenario.RunResult{Spec: scenario.Spec{Experiment: "duel", Queue: "droptail"},
				Result: duelJSON(t, 2e6, 8e6, 0.74)},
			want: ClassInconclusive,
		},
		{
			name: "isolated queue is self-inflicted",
			res: scenario.RunResult{Spec: spec("fq", "clean"),
				Result: duelJSON(t, 2e6, 8e6, 0.7)},
			want: ClassSelfInflicted,
		},
		{
			name: "underutilized shared queue is self-inflicted",
			res: scenario.RunResult{Spec: spec("droptail", "satellite-jitter"),
				Result: duelJSON(t, 1e6, 1e6, 1.0)},
			want: ClassSelfInflicted,
		},
		{
			name: "skewed shared queue is contention-dominated",
			res: scenario.RunResult{Spec: spec("droptail", "clean"),
				Result: duelJSON(t, 2e6, 8e6, 0.74)},
			want: ClassContention,
		},
		{
			name: "fair full shared queue is inconclusive",
			res: scenario.RunResult{Spec: spec("droptail", "clean"),
				Result: duelJSON(t, 4.9e6, 5.1e6, 0.999)},
			want: ClassInconclusive,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Classify(tc.res)
			if o.Class != tc.want {
				t.Fatalf("class = %s, want %s", o.Class, tc.want)
			}
			if tc.res.Err != "" && o.Err == "" {
				t.Fatal("run error not carried into the observation")
			}
		})
	}
	// Stratum attribution: fault defaults to clean, queue carried over.
	o := Classify(scenario.RunResult{Spec: spec("fq", ""), Err: "x"})
	if o.Queue != "fq" || o.Fault != "clean" {
		t.Fatalf("stratum (%s, %s), want (fq, clean)", o.Queue, o.Fault)
	}
}

func TestIsolatedQueue(t *testing.T) {
	for q, iso := range map[string]bool{
		"droptail": false, "shaper": false, "policer": false,
		"fq": true, "fq_codel": true, "sfq": true, "user-iso": true,
	} {
		if isolatedQueue(q) != iso {
			t.Fatalf("isolatedQueue(%s) = %v", q, isolatedQueue(q))
		}
	}
}

// TestCensusShardMergeByteIdentity is the package's core contract: a
// real (small) census run as 3 shards merges to a report
// byte-identical to the single-process pass.
func TestCensusShardMergeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real duel cells")
	}
	m := testModel(12)
	ctx := context.Background()

	single, err := RunShard(ctx, &scenario.Runner{Workers: 4}, m, 0, m.N)
	if err != nil {
		t.Fatal(err)
	}
	singleReport, err := ReportOf(m, single.Agg).Encode()
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	var parts []Partial
	for k := 0; k < shards; k++ {
		lo, hi, err := ShardRange(m.N, k, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Varying worker counts across shards must not matter.
		p, err := RunShard(ctx, &scenario.Runner{Workers: k + 1}, m, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip the partial through its wire form, as the CLI does.
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePartial(b)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, back)
	}
	// Merge in scrambled order.
	parts[0], parts[2] = parts[2], parts[0]
	merged, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	mergedReport, err := merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(singleReport, mergedReport) {
		t.Fatalf("sharded report differs from single-process report:\nsingle: %s\nmerged: %s", singleReport, mergedReport)
	}
	if merged.Overall.Total != m.N {
		t.Fatalf("report totals %d runs, want %d", merged.Overall.Total, m.N)
	}
	// The report carries Wilson CIs bracketing each fraction.
	for _, sr := range append(merged.Strata, merged.Overall) {
		if sr.ContentionLo > sr.ContentionFrac || sr.ContentionFrac > sr.ContentionHi {
			t.Fatalf("stratum %s: CI [%g, %g] does not bracket %g",
				sr.Stratum, sr.ContentionLo, sr.ContentionHi, sr.ContentionFrac)
		}
	}
	var table strings.Builder
	merged.WriteTable(&table)
	if !strings.Contains(table.String(), "overall") {
		t.Fatal("report table is missing the overall row")
	}
}

func TestMergeRejects(t *testing.T) {
	m := testModel(10)
	part := func(lo, hi int) Partial {
		agg := NewAggregate()
		for i := lo; i < hi; i++ {
			agg.Add(Obs{Class: ClassInconclusive, Queue: "droptail", Fault: "clean"})
		}
		return Partial{ModelHash: m.Hash(), Model: m, Lo: lo, Hi: hi, Agg: agg}
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := Merge([]Partial{part(0, 5)}); err == nil {
		t.Fatal("gap at the tail accepted")
	}
	if _, err := Merge([]Partial{part(0, 5), part(6, 10)}); err == nil {
		t.Fatal("gap in the middle accepted")
	}
	if _, err := Merge([]Partial{part(0, 6), part(5, 10)}); err == nil {
		t.Fatal("overlap accepted")
	}
	other := part(5, 10)
	other.ModelHash = strings.Repeat("0", 64)
	other.Model.Seed++
	if _, err := Merge([]Partial{part(0, 5), other}); err == nil {
		t.Fatal("mixed models accepted")
	}
	if r, err := Merge([]Partial{part(5, 10), part(0, 5)}); err != nil {
		t.Fatal(err)
	} else if r.Overall.Total != 10 {
		t.Fatalf("out-of-order merge total %d", r.Overall.Total)
	}
}

func TestParsePartialRejectsTampering(t *testing.T) {
	m := testModel(10)
	agg := NewAggregate()
	agg.Add(Obs{Class: ClassContention, Queue: "droptail", Fault: "clean", Jain: 0.8, Util: 0.9})
	p := Partial{ModelHash: m.Hash(), Model: m, Lo: 0, Hi: 10, Agg: agg}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePartial(b); err != nil {
		t.Fatal(err)
	}
	// Tamper with the embedded model without refreshing the hash.
	tampered := bytes.Replace(b, []byte(`"seed":7`), []byte(`"seed":8`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("tamper target not found")
	}
	if _, err := ParsePartial(tampered); err == nil {
		t.Fatal("tampered partial accepted")
	}
	// Out-of-range coverage is rejected.
	p.Hi = 99
	b, _ = p.Encode()
	if _, err := ParsePartial(b); err == nil {
		t.Fatal("out-of-range partial accepted")
	}
}

// testPartial is a small partial over testModel(10) covering [lo, hi),
// with runs in two strata.
func testPartial(t testing.TB, lo, hi int) []byte {
	t.Helper()
	m := testModel(10)
	agg := NewAggregate()
	agg.Add(Obs{Class: ClassContention, Queue: "droptail", Fault: "clean", Jain: 0.8, Util: 0.9})
	agg.Add(Obs{Class: ClassInconclusive, Queue: "fq", Fault: "wifi-bursty", Err: "stalled"})
	b, err := Partial{ModelHash: m.Hash(), Model: m, Lo: lo, Hi: hi, Agg: agg}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// editAggregate decodes a partial, lets edit change its aggregate as
// generic JSON, and encodes it again.
func editAggregate(t *testing.T, b []byte, edit func(agg map[string]any)) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc["aggregate"].(map[string]any))
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParsePartialRejectsBrokenCells: a hand-edited partial whose cell
// or sketch is null, whose sketch has another geometry, or whose
// counts are negative or exceed the cell's total must fail to parse
// rather than reach Merge, which would dereference or merge it, or
// the report, whose Wilson interval would be NaN.
func TestParsePartialRejectsBrokenCells(t *testing.T) {
	b := testPartial(t, 0, 10)
	if _, err := ParsePartial(b); err != nil {
		t.Fatal(err)
	}
	stratum := func(agg map[string]any) map[string]any {
		return agg["strata"].(map[string]any)["droptail|clean"].(map[string]any)
	}
	overall := func(agg map[string]any) map[string]any { return agg["overall"].(map[string]any) }
	for name, edit := range map[string]func(map[string]any){
		"null stratum":       func(agg map[string]any) { agg["strata"].(map[string]any)["droptail|clean"] = nil },
		"null overall jain":  func(agg map[string]any) { overall(agg)["jain"] = nil },
		"null stratum util":  func(agg map[string]any) { stratum(agg)["util"] = nil },
		"jain of util shape": func(agg map[string]any) { overall(agg)["jain"] = overall(agg)["util"] },
		"util of jain shape": func(agg map[string]any) { stratum(agg)["util"] = stratum(agg)["jain"] },
		"negative total":     func(agg map[string]any) { overall(agg)["total"] = -1 },
		"negative errors":    func(agg map[string]any) { stratum(agg)["errors"] = -1 },
		"negative class count": func(agg map[string]any) {
			stratum(agg)["classes"] = map[string]any{string(ClassContention): -1}
		},
		"class count above total": func(agg map[string]any) {
			stratum(agg)["classes"] = map[string]any{string(ClassContention): 5}
		},
	} {
		if _, err := ParsePartial(editAggregate(t, b, edit)); err == nil {
			t.Errorf("%s: partial accepted", name)
		}
	}
}

// TestMergeIntoCellWithoutClasses: a stratum whose classes were
// omitted must still take another partial's counts.
func TestMergeIntoCellWithoutClasses(t *testing.T) {
	first := editAggregate(t, testPartial(t, 0, 5), func(agg map[string]any) {
		for _, c := range agg["strata"].(map[string]any) {
			delete(c.(map[string]any), "classes")
		}
	})
	var parts []Partial
	for _, b := range [][]byte{first, testPartial(t, 5, 10)} {
		p, err := ParsePartial(b)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	r, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Overall.Classes[ClassContention]; got != 2 {
		t.Fatalf("overall counts %d contention-dominated runs, want 2", got)
	}
	if got := r.Strata[0].Classes[ClassContention]; got != 1 {
		t.Fatalf("stratum %s counts %d contention-dominated runs, want 1", r.Strata[0].Stratum, got)
	}
}

func TestExpansionStats(t *testing.T) {
	m := testModel(50)
	st := m.Expansion()
	if st.N != 50 || st.ModelHash != m.Hash() {
		t.Fatalf("expansion header wrong: %+v", st)
	}
	if len(st.SampleSpecs) != 3 {
		t.Fatalf("%d sample specs, want 3", len(st.SampleSpecs))
	}
	if len(st.Strata) != len(m.QueueMix)*len(m.FaultMix) {
		t.Fatalf("%d strata, want %d", len(st.Strata), len(m.QueueMix)*len(m.FaultMix))
	}
	for _, sp := range st.SampleSpecs {
		if sp.Experiment != "duel" {
			t.Fatalf("sample spec is not a duel: %+v", sp)
		}
	}
}

// TestLedgerModelHashIsPinned: the benchmark's population model keeps
// its hash, so every spec the census-cells workload draws from it is
// the one it drew before.
func TestLedgerModelHashIsPinned(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "ledger", "specs", "census-model.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseModel(b)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0fe73ad2cb362b3cdf79f0ec32163bab4acca6236a21cc121b835c9fb753f021"
	if got := m.Hash(); got != want {
		t.Errorf("census-model.json hashes to %s, want %s", got, want)
	}
}

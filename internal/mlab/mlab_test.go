package mlab

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestGenerateCountAndDeterminism(t *testing.T) {
	cfg := GeneratorConfig{Flows: 500, Seed: 1}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("counts = %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].TruthLabel != b[i].TruthLabel || a[i].MeanThroughputBps != b[i].MeanThroughputBps {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	// A different seed yields a different dataset.
	c := Generate(GeneratorConfig{Flows: 500, Seed: 2})
	same := 0
	for i := range a {
		if a[i].TruthLabel == c[i].TruthLabel {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds produced identical label sequences")
	}
}

func TestGenerateDefaultSize(t *testing.T) {
	recs := Generate(GeneratorConfig{Seed: 1, Flows: 0})
	if len(recs) != 9984 {
		t.Errorf("default flows = %d, want the paper's 9,984", len(recs))
	}
}

func TestGenerateMixtureRoughlyHonored(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 4000, Seed: 3})
	counts := map[Label]int{}
	for i := range recs {
		counts[recs[i].TruthLabel]++
	}
	mix := DefaultMixture()
	check := func(l Label, want float64) {
		got := float64(counts[l]) / 4000
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("%s fraction = %.3f, want ~%.3f", l, got, want)
		}
	}
	check(LabelAppLimited, mix.AppLimited)
	check(LabelCellular, mix.Cellular)
	check(LabelContending, mix.Contending)
	check(LabelShort, mix.Short)
}

func TestGeneratedRecordInvariants(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 300, Seed: 4})
	for i := range recs {
		r := &recs[i]
		if r.ID == "" || r.Duration <= 0 || len(r.Snapshots) == 0 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		prev := time.Duration(0)
		var prevBytes int64
		for _, s := range r.Snapshots {
			if s.At <= prev {
				t.Fatalf("record %d: snapshots not strictly increasing", i)
			}
			if s.BytesAcked < prevBytes {
				t.Fatalf("record %d: BytesAcked not monotone", i)
			}
			if s.ThroughputBps < 0 {
				t.Fatalf("record %d: negative throughput", i)
			}
			prev = s.At
			prevBytes = s.BytesAcked
		}
		if r.TruthLabel == LabelCellular && r.Access != AccessCellular {
			t.Fatalf("record %d: cellular label with access %s", i, r.Access)
		}
		if r.TruthLabel == LabelAppLimited && r.FinalSnapshot().AppLimited == 0 {
			t.Fatalf("record %d: app-limited label without AppLimited time", i)
		}
		if r.TruthLabel == LabelRWndLimited && r.FinalSnapshot().RWndLimited == 0 {
			t.Fatalf("record %d: rwnd-limited label without RWndLimited time", i)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 50, Seed: 5})
	got, err := decodeJSONL(encodeJSONL(t, recs), StreamLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip count = %d", len(got))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || got[i].TruthLabel != recs[i].TruthLabel ||
			len(got[i].Snapshots) != len(recs[i].Snapshots) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := decodeJSONL(strings.NewReader("{not json"), StreamLimits{}); err == nil {
		t.Error("expected decode error")
	}
	recs, err := decodeJSONL(strings.NewReader(""), StreamLimits{})
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: %v, %d records", err, len(recs))
	}
}

func TestAnalyzeCategorization(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 2000, Seed: 6})
	an := analyze(t, recs, AnalysisConfig{})
	if an.Total != 2000 {
		t.Fatalf("total = %d", an.Total)
	}
	// Every flow is categorized exactly once.
	var sum int
	for _, c := range CategoryOrder() {
		sum += an.ByCat[c]
	}
	if sum != 2000 {
		t.Errorf("category sum = %d", sum)
	}
	// The pipeline's exclusions follow the observable fields: all
	// cellular-access candidates must have been excluded before the
	// change-point stage.
	for _, r := range an.Results {
		if r.Category == CatStable || r.Category == CatLevelShift {
			if r.Truth == LabelAppLimited || r.Truth == LabelRWndLimited {
				t.Errorf("flow %s (%s) reached the change-point stage", r.ID, r.Truth)
			}
		}
	}
}

func TestAnalyzeDetectsContendingFlows(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 3000, Seed: 7})
	an := analyze(t, recs, AnalysisConfig{})
	v := an.Validate()
	if v.Recall() < 0.7 {
		t.Errorf("recall = %.3f, want >= 0.7 (tp=%d fn=%d)", v.Recall(), v.TruePos, v.FalseNeg)
	}
	if v.Precision() < 0.8 {
		t.Errorf("precision = %.3f (fp=%d)", v.Precision(), v.FalsePos)
	}
	// Steady flows rarely misclassified.
	if an.ByCat[CatLevelShift] == 0 {
		t.Error("no level shifts found at all")
	}
}

func TestAnalysisReport(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 300, Seed: 9})
	an := analyze(t, recs, AnalysisConfig{})
	var buf bytes.Buffer
	an.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"app-limited", "rwnd-limited", "cellular", "level-shift", "candidate"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestValidationMetrics(t *testing.T) {
	v := Validation{TruePos: 8, FalsePos: 2, FalseNeg: 2, TrueNeg: 88}
	if v.Precision() != 0.8 {
		t.Errorf("precision = %v", v.Precision())
	}
	if v.Recall() != 0.8 {
		t.Errorf("recall = %v", v.Recall())
	}
	var zero Validation
	if zero.Precision() != 0 || zero.Recall() != 0 {
		t.Error("empty validation should be 0")
	}
}

func TestSnapshotFractions(t *testing.T) {
	recs := Generate(GeneratorConfig{Flows: 100, Seed: 10})
	for i := range recs {
		s := recs[i].FinalSnapshot()
		if f := s.AppLimitedFraction(); f < 0 || f > 1.01 {
			t.Errorf("app-limited fraction out of range: %v", f)
		}
	}
}

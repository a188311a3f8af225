package hunt

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TestGoldenTraceManifestIsTheSpecs: the hunt's golden trace carries
// the header every other trace artifact of the spec carries
// (Spec.Manifest) plus its own two Extra keys; the hand-built copy
// used to drop the fault profile and phases.
func TestGoldenTraceManifestIsTheSpecs(t *testing.T) {
	sp := scenario.Spec{Experiment: "huntcell", CCAs: []string{"reno"}, Seed: 3, FaultSeed: 2,
		FaultProfile: "wifi-bursty", Phases: []string{"idle"},
		Cross: []traffic.Phase{{Kind: "idle", DurS: 1}}}
	res := &Result{Objective: "harm", BestSpec: sp, BestHash: sp.Hash(), BestScore: 0.25}
	_, tracePath, err := WriteArtifacts(context.Background(), t.TempDir(), res)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := obs.ReadRunLog(f)
	if err != nil {
		t.Fatal(err)
	}
	want := sp.Manifest()
	want.Extra["objective"] = "harm"
	want.Extra["artifact"] = "hunt-golden"
	if !reflect.DeepEqual(log.Manifest, want) {
		t.Errorf("hunt trace manifest %+v\nwant Spec.Manifest plus objective and artifact: %+v", log.Manifest, want)
	}
}

package hunt

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/scenario"
)

// testConfig is a small but real hunt: three GA generations, victim
// mode (fast evaluations).
func testConfig(t *testing.T, runner *scenario.Runner) Config {
	t.Helper()
	obj, err := LookupObjective("harm")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Objective: obj,
		Budget:    18,
		Pop:       6,
		Seed:      42,
		Runner:    runner,
	}
}

func runHunt(t *testing.T, runner *scenario.Runner) []byte {
	t.Helper()
	res, err := Run(context.Background(), testConfig(t, runner))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHuntDeterministicAcrossWorkersAndCache is the replayability
// contract: the full hunt record — every generation, every hash, the
// winner — is byte-identical whether evaluations run on one worker or
// eight, against a cold cache or a warm one. Worker scheduling and
// cache state must never leak into the search trajectory.
func TestHuntDeterministicAcrossWorkersAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cache, err := scenario.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name   string
		runner *scenario.Runner
	}{
		{"seq-nocache", &scenario.Runner{Workers: 1}},
		{"par-nocache", &scenario.Runner{Workers: 8}},
		{"par-coldcache", &scenario.Runner{Workers: 8, Cache: cache}},
		{"seq-warmcache", &scenario.Runner{Workers: 1, Cache: cache}},
	}
	var want []byte
	for _, r := range runs {
		got := runHunt(t, r.runner)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: hunt record diverged:\n%s\nvs baseline:\n%s", r.name, got, want)
		}
	}
}

func TestHuntResultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := testConfig(t, &scenario.Runner{Workers: 4})
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != cfg.Budget {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, cfg.Budget)
	}
	if len(res.History) != cfg.Budget/cfg.Pop {
		t.Errorf("history has %d generations, want %d", len(res.History), cfg.Budget/cfg.Pop)
	}
	if res.BestScore < 0 || res.BestScore > 2 {
		t.Errorf("best score %v out of range", res.BestScore)
	}
	if res.BestHash != res.BestSpec.Hash() {
		t.Errorf("best hash %s does not match best spec %s", res.BestHash, res.BestSpec.Hash())
	}
	if err := res.Best.Validate(cfg.Objective.DefaultBounds()); err != nil {
		t.Errorf("best genome invalid: %v", err)
	}
	// The recorded best must be reachable from the result alone:
	// decoding the stored genome under the stored params reproduces the
	// winning spec hash.
	if h := res.Best.Decode(res.Params).Hash(); h != res.BestHash {
		t.Errorf("replay hash %s != recorded %s", h, res.BestHash)
	}
}

func TestRandomBaselineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := testConfig(t, &scenario.Runner{Workers: 8})
	b1, err := RandomBaseline(context.Background(), cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(t, &scenario.Runner{Workers: 1})
	b2, err := RandomBaseline(context.Background(), cfg2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if *b1 != *b2 {
		t.Errorf("baseline diverged across worker counts: %+v vs %+v", b1, b2)
	}
	if b1.N != 12 || b1.BestHash == "" {
		t.Errorf("baseline shape: %+v", b1)
	}
}

func TestHuntRejectsMissingObjective(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing objective should error")
	}
}

// TestHuntTrajectoryPinned pins a whole search, not a single genome:
// for each objective at seed 1, budget 96, pop 24 and an otherwise
// zero Config, the winner and every generation's best hash and mean
// must replay exactly. The corpus test replays genomes the search once
// found; this one fails when selection, breeding, immigration or the
// rng coordinates move. The means are pinned because on unfair and
// elastic-miss generation 0 already holds the final best hash.
func TestHuntTrajectoryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	type gen struct {
		hash string
		mean float64
	}
	pins := []struct {
		objective string
		bestHash  string
		bestScore float64
		gens      []gen
	}{
		{"harm", "36459789058dd8cc9c5e9da9e72d3c14f4fda2985f3f53e3f89a51c905785e86", 1.2206397058823528, []gen{
			{"359fa0b8c8f32504d22a0b79ef892dd875a982b2ca69afdeb9c2019147d396aa", 0.7349051888244619},
			{"28631ddc21e1162b81f509c96003617e61bb40caa2901706f93a797896be430f", 0.9197390435326213},
			{"36459789058dd8cc9c5e9da9e72d3c14f4fda2985f3f53e3f89a51c905785e86", 0.9337752639143021},
			{"36459789058dd8cc9c5e9da9e72d3c14f4fda2985f3f53e3f89a51c905785e86", 0.9861288087812076},
		}},
		{"unfair", "69d98be7d833fc973002ce31989b5ce7f6c0199ec0c956160150d1d8af33a522", 1, []gen{
			{"69d98be7d833fc973002ce31989b5ce7f6c0199ec0c956160150d1d8af33a522", 0.3269597043106332},
			{"69d98be7d833fc973002ce31989b5ce7f6c0199ec0c956160150d1d8af33a522", 0.3747085978867076},
			{"69d98be7d833fc973002ce31989b5ce7f6c0199ec0c956160150d1d8af33a522", 0.5724474932387221},
			{"69d98be7d833fc973002ce31989b5ce7f6c0199ec0c956160150d1d8af33a522", 0.6642696805972622},
		}},
		{"elastic-miss", "efdfbdbef53414162ebac1cbc20204a29dcc4b3c35d81d9c9a7f3097e9aeeecc", 1.25, []gen{
			{"efdfbdbef53414162ebac1cbc20204a29dcc4b3c35d81d9c9a7f3097e9aeeecc", 0.519293640382176},
			{"efdfbdbef53414162ebac1cbc20204a29dcc4b3c35d81d9c9a7f3097e9aeeecc", 0.8167018254040569},
			{"efdfbdbef53414162ebac1cbc20204a29dcc4b3c35d81d9c9a7f3097e9aeeecc", 0.8472441434798726},
			{"efdfbdbef53414162ebac1cbc20204a29dcc4b3c35d81d9c9a7f3097e9aeeecc", 0.957445455348707},
		}},
		{"flip", "e1bb3f5e869b8fec2ddd4c8a96de89ccac9b82ce6bb2c0c10eed2228e071ed62", 1.25, []gen{
			{"104d56c00d609c1312d38ebc34b39df89eba834c431685b2bb0086b248a20910", 0.18728143862362057},
			{"104d56c00d609c1312d38ebc34b39df89eba834c431685b2bb0086b248a20910", 0.3355369262629962},
			{"761c5162a0f799e812df152c33be17ff88c738eb15486391b82cb6e985a11d36", 0.47033961931942714},
			{"e1bb3f5e869b8fec2ddd4c8a96de89ccac9b82ce6bb2c0c10eed2228e071ed62", 0.5668531676289432},
		}},
	}
	for _, p := range pins {
		p := p
		t.Run(p.objective, func(t *testing.T) {
			t.Parallel()
			obj, err := LookupObjective(p.objective)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), Config{
				Objective: obj, Budget: 96, Pop: 24, Seed: 1,
				Runner: &scenario.Runner{Workers: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.BestHash != p.bestHash || res.BestScore != p.bestScore {
				t.Errorf("best = %s (%v), pinned %s (%v)", res.BestHash, res.BestScore, p.bestHash, p.bestScore)
			}
			if len(res.History) != len(p.gens) {
				t.Fatalf("%d generations, pinned %d", len(res.History), len(p.gens))
			}
			for i, g := range res.History {
				if g.BestHash != p.gens[i].hash || g.Mean != p.gens[i].mean {
					t.Errorf("gen %d: best %s mean %v, pinned %s mean %v", i, g.BestHash, g.Mean, p.gens[i].hash, p.gens[i].mean)
				}
			}
		})
	}
}

package hunt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Config parameterizes one hunt.
type Config struct {
	// Objective is the fitness function (see LookupObjective).
	Objective Objective
	// Bounds confines the genome space (zero value: the objective's
	// DefaultBounds).
	Bounds Bounds
	// Budget caps genome evaluations (default 200). A twin objective
	// still counts one evaluation per genome; its second, fault-
	// stripped run rides the same evaluation.
	Budget int
	// Pop is the GA population size (default 24, min 4).
	Pop int
	// Seed is the hunt's model seed: every random draw anywhere in the
	// hunt derives from it via faults.DeriveSeed.
	Seed int64
	// Runner executes evaluations (workers, cache, progress are the
	// caller's choice). Nil gets a zero-value sequential runner.
	Runner *scenario.Runner
	// Log, when non-nil, receives one-line progress narration.
	Log func(format string, args ...any)

	// params fixes the main flow and the evaluation seeds; norm
	// derives it from Objective and Seed, so a hunt is fully specified
	// by (objective, seed, budget, pop).
	params Params
}

func (c Config) norm() Config {
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.Pop <= 0 {
		c.Pop = 24
	}
	if c.Pop < 4 {
		c.Pop = 4
	}
	if c.Bounds == (Bounds{}) {
		c.Bounds = c.Objective.DefaultBounds()
	}
	if c.Runner == nil {
		c.Runner = &scenario.Runner{}
	}
	c.params = Params{
		Probe:     c.Objective.Probe,
		Seed:      faults.DeriveSeed(c.Seed, "hunt/workload-seed"),
		FaultSeed: faults.DeriveSeed(c.Seed, "hunt/fault-seed"),
	}
	return c
}

// Generation is one GA round's summary.
type Generation struct {
	Gen      int     `json:"gen"`
	Evals    int     `json:"evals"`
	Best     float64 `json:"best"`
	Mean     float64 `json:"mean"`
	BestHash string  `json:"best_hash"`
}

// Baseline is the undirected-search comparison: the best of N random
// genomes under the same params, seeds, and bounds.
type Baseline struct {
	N        int     `json:"n"`
	Best     float64 `json:"best"`
	Mean     float64 `json:"mean"`
	BestHash string  `json:"best_hash"`
}

// Result is a hunt's outcome. Everything in it is deterministic given
// the config: worker count and cache state never leak in.
type Result struct {
	Objective   string        `json:"objective"`
	Seed        int64         `json:"seed"`
	Budget      int           `json:"budget"`
	Evaluations int           `json:"evaluations"`
	Params      Params        `json:"params"`
	Best        Genome        `json:"best"`
	BestScore   float64       `json:"best_score"`
	BestSpec    scenario.Spec `json:"best_spec"`
	BestHash    string        `json:"best_hash"`
	History     []Generation  `json:"history"`
	Random      *Baseline     `json:"random,omitempty"`
}

type hunter struct {
	cfg   Config
	evals int
	rng   *rand.Rand // what dice re-seeds
}

func newHunter(cfg Config) *hunter {
	return &hunter{cfg: cfg, rng: sim.NewRand(0)}
}

// dice returns the one rng a (label, generation, index) coordinate is
// allowed to draw from: the hunter's generator, re-seeded from the
// coordinate, valid until the next call. DeriveSeed is
// order-independent, so any execution order — one worker or sixteen —
// sees identical dice.
func (h *hunter) dice(label string, gen, idx int) *rand.Rand {
	h.rng.Seed(faults.DeriveSeed(h.cfg.Seed, fmt.Sprintf("hunt/%s/%d/%d", label, gen, idx)))
	return h.rng
}

// evaluate scores a batch of genomes through one runner sweep. Results
// come back in input order, so scores are positionally stable no
// matter which worker finishes first. A twin objective evaluates two
// specs per genome (the decoded spec and its fault-stripped twin) in
// the same sweep.
func (h *hunter) evaluate(ctx context.Context, genomes []Genome) ([]float64, error) {
	per := 1
	if h.cfg.Objective.Twin {
		per = 2
	}
	specs := make([]scenario.Spec, 0, len(genomes)*per)
	for _, g := range genomes {
		sp := g.Decode(h.cfg.params)
		specs = append(specs, sp)
		if h.cfg.Objective.Twin {
			clean := sp
			clean.Fault = nil
			specs = append(specs, clean)
		}
	}
	results, err := h.cfg.Runner.Sweep(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("hunt: evaluate: %w", err)
	}
	scores := make([]float64, len(genomes))
	for i := range genomes {
		faulted, err := DecodeOutcome(results[i*per])
		if err != nil {
			return nil, fmt.Errorf("hunt: genome %d (%s): %w", i, results[i*per].Hash, err)
		}
		var clean *core.HuntCellResult
		if h.cfg.Objective.Twin {
			if clean, err = DecodeOutcome(results[i*per+1]); err != nil {
				return nil, fmt.Errorf("hunt: genome %d twin (%s): %w", i, results[i*per+1].Hash, err)
			}
		}
		scores[i] = sanitize(h.cfg.Objective.Score(faulted, clean))
	}
	h.evals += len(genomes)
	return scores, nil
}

// The GA's shape. Constants, not Config fields: the corpus and the
// pinned trajectories were found with these values.
const (
	// gaElite top genomes survive each generation unchanged.
	gaElite = 2
	// gaCrossoverP is the probability a child has two parents.
	gaCrossoverP = 0.7
	// gaTournamentK is the selection tournament size.
	gaTournamentK = 3
	// Pop/gaImmigrantDiv fresh random genomes join each bred
	// generation. Immigration keeps the GA exploring: its sample pool
	// stays a superset of what undirected random sampling would draw,
	// with selection pressure on top, so the guided search cannot
	// converge below the blind baseline.
	gaImmigrantDiv = 4
)

// Run executes the hunt: a population loop that evaluates, records,
// selects and breeds until the budget is spent. Elites are carried (and
// re-evaluated: with a cache their sweep slots are free hits, and the
// score bookkeeping stays uniform).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.norm()
	if cfg.Objective.Score == nil {
		return nil, fmt.Errorf("hunt: config has no objective")
	}
	h := newHunter(cfg)
	res := &Result{
		Objective: cfg.Objective.Name,
		Seed:      cfg.Seed,
		Budget:    cfg.Budget,
		Params:    cfg.params,
		BestScore: math.Inf(-1),
	}

	left := cfg.Budget
	pop := make([]Genome, cfg.Pop)
	for i := range pop {
		pop[i] = RandomGenome(h.dice("init", 0, i), cfg.Bounds)
	}
	for gen := 0; left > 0; gen++ {
		if len(pop) > left {
			pop = pop[:left]
		}
		scores, err := h.evaluate(ctx, pop)
		if err != nil {
			return nil, err
		}
		left -= len(pop)

		order := rankDesc(scores)
		var sum float64
		for _, s := range scores {
			sum += s
		}
		for i, g := range pop {
			res.note(g, scores[i])
		}
		best := pop[order[0]]
		g := Generation{
			Gen: gen, Evals: h.evals,
			Best: scores[order[0]], Mean: sum / float64(len(scores)),
			BestHash: best.Decode(cfg.params).Hash(),
		}
		res.History = append(res.History, g)
		if cfg.Log != nil {
			cfg.Log("hunt %s gen %d: best %.4f mean %.4f (%d/%d evals)",
				cfg.Objective.Name, gen, g.Best, g.Mean, h.evals, cfg.Budget)
		}
		if left == 0 {
			break
		}

		next := make([]Genome, 0, cfg.Pop)
		for _, e := range order[:gaElite] {
			next = append(next, pop[e].Clone())
		}
		for i := len(next); i < cfg.Pop; i++ {
			// Tail slots are immigrants: fresh random genomes drawn from
			// the same deterministic (label, gen, index) coordinates as
			// the initial population.
			if i >= cfg.Pop-cfg.Pop/gaImmigrantDiv {
				next = append(next, RandomGenome(h.dice("init", gen+1, i), cfg.Bounds))
				continue
			}
			rng := h.dice("breed", gen+1, i)
			p1 := pop[tournament(rng, scores, gaTournamentK)]
			child := p1
			if rng.Float64() < gaCrossoverP {
				p2 := pop[tournament(rng, scores, gaTournamentK)]
				child = Crossover(p1, p2, rng, cfg.Bounds)
			}
			next = append(next, child.Mutate(rng, cfg.Bounds))
		}
		pop = next
	}

	res.Evaluations = h.evals
	res.BestSpec = res.Best.Decode(cfg.params)
	res.BestHash = res.BestSpec.Hash()
	return res, nil
}

// note records a candidate as best when it strictly improves. Ties
// keep the earlier find, so the incumbent is stable across replays.
func (r *Result) note(g Genome, score float64) {
	if score > r.BestScore {
		r.BestScore = score
		r.Best = g.Clone()
	}
}

// RandomBaseline evaluates n random genomes under the same params,
// seeds, and bounds as the hunt — the undirected search the guided one
// must beat. The baseline's evaluations do not count against the
// hunt's budget; it is the comparison set, not part of the search.
func RandomBaseline(ctx context.Context, cfg Config, n int) (*Baseline, error) {
	cfg = cfg.norm()
	if cfg.Objective.Score == nil {
		return nil, fmt.Errorf("hunt: config has no objective")
	}
	h := newHunter(cfg)
	genomes := make([]Genome, n)
	for i := range genomes {
		genomes[i] = RandomGenome(h.dice("random", 0, i), cfg.Bounds)
	}
	scores, err := h.evaluate(ctx, genomes)
	if err != nil {
		return nil, err
	}
	base := &Baseline{N: n, Best: math.Inf(-1)}
	var sum float64
	for i, s := range scores {
		sum += s
		if s > base.Best {
			base.Best = s
			base.BestHash = genomes[i].Decode(cfg.params).Hash()
		}
	}
	if n > 0 {
		base.Mean = sum / float64(n)
	} else {
		base.Best = 0
	}
	return base, nil
}

// rankDesc returns indices sorted by score descending, ties broken by
// index so the ranking is total and replay-stable.
func rankDesc(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// tournament picks the best of k uniformly drawn indices (ties to the
// lower index).
func tournament(rng *rand.Rand, scores []float64, k int) int {
	best := rng.Intn(len(scores))
	for i := 1; i < k; i++ {
		c := rng.Intn(len(scores))
		if scores[c] > scores[best] || (scores[c] == scores[best] && c < best) {
			best = c
		}
	}
	return best
}

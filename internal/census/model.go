// Package census scales the repro's contention cell from a handful of
// hand-picked grid points to a parameterized population: a Model
// describes the distribution of paths out in the wild (which CCAs meet,
// behind which queues, at what rates and RTTs, through which fault
// profiles), and the package samples, executes, classifies, and
// aggregates runs over that population — the "measurement study at
// population scale" the paper argues for, run against the emulator's
// ground truth instead of the real Internet.
//
// Everything is deterministic and shardable: spec i of a model is a
// pure function of (model hash, i), so any index slice [lo, hi) of the
// census regenerates byte-identically in any process, and the
// per-shard aggregates merge into a report byte-identical to a
// single-process pass over [0, N).
package census

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// Weighted is one choice in a categorical mix, weighted by prevalence.
type Weighted struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Dist describes one continuous parameter's population distribution.
type Dist struct {
	// Kind selects the shape: "const" (always Lo), "uniform" on
	// [Lo, Hi], or "loguniform" on [Lo, Hi] (uniform in log space —
	// the natural shape for rates spanning decades).
	Kind string  `json:"kind"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi,omitempty"`
}

// Sample maps a unit-interval draw to a value from the distribution.
func (d Dist) Sample(u float64) float64 {
	switch d.Kind {
	case "uniform":
		return d.Lo + u*(d.Hi-d.Lo)
	case "loguniform":
		return math.Exp(math.Log(d.Lo) + u*(math.Log(d.Hi)-math.Log(d.Lo)))
	default: // const
		return d.Lo
	}
}

// validate checks the shape, and that every sample is positive and
// finite: the duel reads a rate, RTT or buffer that is not positive as
// "use my default", so a zero draw would run a cell other than the one
// the report names. Both shapes are monotone in the draw, so the
// samples at 0 and 1 bound every other.
func (d Dist) validate(name string) error {
	switch d.Kind {
	case "", "const":
	case "uniform":
		if !(d.Hi >= d.Lo) {
			return fmt.Errorf("census: %s: uniform needs hi >= lo, got [%g, %g]", name, d.Lo, d.Hi)
		}
	case "loguniform":
		if !(d.Lo > 0 && d.Hi >= d.Lo) {
			return fmt.Errorf("census: %s: loguniform needs 0 < lo <= hi, got [%g, %g]", name, d.Lo, d.Hi)
		}
	default:
		return fmt.Errorf("census: %s: unknown distribution kind %q", name, d.Kind)
	}
	if lo, hi := d.Sample(0), d.Sample(1); !(lo > 0) || math.IsInf(hi, 0) {
		return fmt.Errorf("census: %s: samples must be positive and finite, got [%g, %g]", name, lo, hi)
	}
	return nil
}

// Model parameterizes the population a census samples from. The zero
// value is not usable; start from DefaultModel or a JSON file.
type Model struct {
	// Name is a free-form label carried into reports.
	Name string `json:"name,omitempty"`
	// Seed is the base seed every per-spec stream derives from.
	Seed int64 `json:"seed"`
	// N is the population size: the census runs specs [0, N).
	N int `json:"n"`
	// DurationS is each cell's simulated duration in seconds.
	DurationS float64 `json:"duration_s"`

	// CCAMix is the deployment mix congestion controllers are drawn
	// from; each path draws its two contenders independently.
	CCAMix []Weighted `json:"cca_mix"`
	// QueueMix is the deployment mix of bottleneck queue disciplines.
	QueueMix []Weighted `json:"queue_mix"`
	// FaultMix is the prevalence of path fault profiles.
	FaultMix []Weighted `json:"fault_mix"`

	// Rate, RTT, and Buffer describe the bottleneck population:
	// bits/s, milliseconds, and BDP multiples respectively.
	Rate   Dist `json:"rate_bps"`
	RTT    Dist `json:"rtt_ms"`
	Buffer Dist `json:"buffer_bdp"`
}

// DefaultModel is a plausible access-network population: a cubic-heavy
// CCA mix with a BBR minority, mostly-FIFO tail-drop queues with some
// deployed isolation, rates spanning DSL to fiber, and a long tail of
// impaired paths.
func DefaultModel() Model {
	return Model{
		Name:      "default-access-population",
		Seed:      1,
		N:         100000,
		DurationS: 10,
		CCAMix: []Weighted{
			{Name: "cubic", Weight: 0.55},
			{Name: "bbr", Weight: 0.25},
			{Name: "reno", Weight: 0.15},
			{Name: "vegas", Weight: 0.05},
		},
		QueueMix: []Weighted{
			{Name: "droptail", Weight: 0.70},
			{Name: "fq_codel", Weight: 0.12},
			{Name: "fq", Weight: 0.08},
			{Name: "sfq", Weight: 0.05},
			{Name: "policer", Weight: 0.05},
		},
		FaultMix: []Weighted{
			{Name: "clean", Weight: 0.70},
			{Name: "wifi-bursty", Weight: 0.15},
			{Name: "dsl-noise", Weight: 0.08},
			{Name: "flaky-cellular", Weight: 0.05},
			{Name: "satellite-jitter", Weight: 0.02},
		},
		Rate:   Dist{Kind: "loguniform", Lo: 4e6, Hi: 400e6},
		RTT:    Dist{Kind: "uniform", Lo: 10, Hi: 120},
		Buffer: Dist{Kind: "uniform", Lo: 0.5, Hi: 4},
	}
}

// Validate checks the model is well-formed: positive size and
// duration, non-empty mixes with positive total weight, and sane
// distributions that sample only positive, finite values.
func (m Model) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("census: model population n must be positive, got %d", m.N)
	}
	if m.DurationS <= 0 {
		return fmt.Errorf("census: model duration_s must be positive, got %g", m.DurationS)
	}
	for _, mix := range []struct {
		name string
		ws   []Weighted
	}{{"cca_mix", m.CCAMix}, {"queue_mix", m.QueueMix}, {"fault_mix", m.FaultMix}} {
		if len(mix.ws) == 0 {
			return fmt.Errorf("census: model %s is empty", mix.name)
		}
		total := 0.0
		for _, w := range mix.ws {
			if w.Name == "" {
				return fmt.Errorf("census: model %s has an unnamed entry", mix.name)
			}
			if w.Weight < 0 || math.IsNaN(w.Weight) {
				return fmt.Errorf("census: model %s entry %q has invalid weight %g", mix.name, w.Name, w.Weight)
			}
			total += w.Weight
		}
		if total <= 0 {
			return fmt.Errorf("census: model %s has zero total weight", mix.name)
		}
	}
	for _, d := range []struct {
		name string
		d    Dist
	}{{"rate_bps", m.Rate}, {"rtt_ms", m.RTT}, {"buffer_bdp", m.Buffer}} {
		if err := d.d.validate(d.name); err != nil {
			return err
		}
	}
	return nil
}

// ParseModel decodes and validates a model from JSON, rejecting
// unknown fields so a typo'd axis name fails loudly instead of
// silently sampling the default.
func ParseModel(b []byte) (Model, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m Model
	if err := dec.Decode(&m); err != nil {
		return Model{}, fmt.Errorf("census: parse model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// modelHashDomain versions the hash input, mirroring the spec hash.
const modelHashDomain = "ccac/census-model/v1\n"

// Hash returns the model's stable content hash over its canonical
// JSON. Partials carry it so a merge across mismatched models is
// refused instead of silently blended.
func (m Model) Hash() string {
	b, err := scenario.CanonicalJSON(m)
	if err != nil {
		// Model is a plain data struct; canonical encoding cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(append([]byte(modelHashDomain), b...))
	return fmt.Sprintf("%x", sum)
}

// unit maps a derived seed to a uniform float64 in [0, 1). DeriveSeed
// returns 63 uniform bits, so the division is exact enough for axis
// sampling and — critically — a pure function of its inputs.
func unit(seed int64) float64 {
	return float64(seed) / (1 << 63)
}

// pick selects from a weighted mix by a unit draw. Selection walks the
// mix in declaration order, so a model's JSON fixes the mapping.
func pick(ws []Weighted, u float64) string {
	total := 0.0
	for _, w := range ws {
		total += w.Weight
	}
	target := u * total
	cum := 0.0
	for _, w := range ws {
		cum += w.Weight
		if target < cum {
			return w.Name
		}
	}
	return ws[len(ws)-1].Name
}

// SpecAt returns census spec i: a duel cell sampled from the model's
// population. It is a pure function of (model hash, i) — no state, no
// iteration order — which is the whole sharding contract: shard k of M
// regenerates exactly the specs a single process would have built for
// the same indices.
func (m Model) SpecAt(i int) scenario.Spec {
	return hashedModel{m: m, hash: m.Hash()}.specAt(i)
}

// hashedModel pre-computes the model hash so hot paths (specAt per
// index) don't rehash the model on every call.
type hashedModel struct {
	m    Model
	hash string
}

func (h hashedModel) specAt(i int) scenario.Spec {
	// One path seed per index, derived through the model hash so two
	// models that differ anywhere sample disjoint streams; one child
	// seed per axis so axes stay independent.
	path := faults.DeriveSeed(h.m.Seed, "census/"+h.hash+"/path/"+strconv.Itoa(i))
	draw := func(axis string) float64 { return unit(faults.DeriveSeed(path, "axis:"+axis)) }
	m := h.m
	sp := scenario.Spec{
		Experiment: "duel",
		Seed:       faults.DeriveSeed(path, "workload"),
		DurationS:  m.DurationS,
		CCAs: []string{
			pick(m.CCAMix, draw("cca1")),
			pick(m.CCAMix, draw("cca2")),
		},
		Queue:        pick(m.QueueMix, draw("queue")),
		FaultProfile: pick(m.FaultMix, draw("fault")),
		RateBps:      m.Rate.Sample(draw("rate")),
		RTTMs:        m.RTT.Sample(draw("rtt")),
		BufferBDP:    m.Buffer.Sample(draw("buffer")),
	}
	if sp.FaultProfile != "" {
		sp.FaultSeed = faults.DeriveSeed(path, "fault-seed")
	}
	return sp
}

// ShardRange returns the index slice [lo, hi) of shard k of total m
// shards over a population of n, splitting as evenly as integer
// arithmetic allows (earlier shards get the remainder).
func ShardRange(n, k, m int) (lo, hi int, err error) {
	if m <= 0 || k < 0 || k >= m {
		return 0, 0, fmt.Errorf("census: shard %d/%d out of range", k, m)
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("census: negative population %d", n)
	}
	return k * n / m, (k + 1) * n / m, nil
}

// ExpansionStats summarizes what a model will expand to without
// running anything — `ccac census gen`'s output.
type ExpansionStats struct {
	ModelHash string `json:"model_hash"`
	Model     Model  `json:"model"`
	N         int    `json:"n"`
	// Strata lists the queue x fault strata the aggregate will carry.
	Strata []string `json:"strata"`
	// SampleSpecs holds the first few sampled specs as a spot check
	// that the model expands to what its author intended.
	SampleSpecs []scenario.Spec `json:"sample_specs"`
}

// expansionSamples is how many sampled specs Expansion keeps as a spot
// check.
const expansionSamples = 3

// Expansion computes a model's expansion stats, sampling the first
// expansionSamples specs.
func (m Model) Expansion() ExpansionStats {
	st := ExpansionStats{ModelHash: m.Hash(), Model: m, N: m.N}
	for _, q := range m.QueueMix {
		for _, f := range m.FaultMix {
			st.Strata = append(st.Strata, StratumKey(q.Name, f.Name))
		}
	}
	sort.Strings(st.Strata)
	h := hashedModel{m: m, hash: st.ModelHash}
	for i := 0; i < min(expansionSamples, m.N); i++ {
		st.SampleSpecs = append(st.SampleSpecs, h.specAt(i))
	}
	return st
}

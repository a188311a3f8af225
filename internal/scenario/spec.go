// Package scenario is the declarative experiment layer: every workload
// in the repro — the paper's figures, the ablations, the oracle and
// TSLP studies, and ad-hoc contention duels — is described by a Spec,
// registered under a name, and executed through a Runner that sweeps
// grids of specs across a worker pool with per-run observability
// scopes, derived seeds, and a content-addressed result cache.
//
// The package guarantees byte-level reproducibility: a Spec has a
// canonical JSON encoding and a stable content hash, every registered
// experiment is deterministic given the spec's seeds, and results are
// themselves canonically encoded — so a parallel sweep produces
// results byte-identical to a sequential run of the same specs, and a
// cached result is indistinguishable from a fresh one.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"crypto/sha256"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// Spec declares one experiment run: which named experiment, on what
// link, with what flows, traffic phases, faults, duration, and seeds.
// It is the union of the knobs the registered experiments consume.
// Each key's comment names the experiments that read it, as the table
// in docs/SCENARIOS.md does; an experiment ignores the other keys,
// which keeps grid expansion uniform. The Runner fills a key the spec
// leaves at zero from the registration's Defaults before the run, and
// fails a run whose key is negative or rounds to zero (see resolve);
// seeds, faults, Cross, Probe and FluidAbove are never filled, since
// zero is a value there.
//
// Durations are expressed in float seconds and rates in bits/s so
// specs read naturally as JSON.
type Spec struct {
	// Experiment names the registered experiment to run (see Names).
	Experiment string `json:"experiment"`
	// Seed drives workload randomness: fig2, fig3, oracle, tslp,
	// cellular, accesslink, huntcell and manyflow.
	Seed int64 `json:"seed,omitempty"`
	// DurationS is the scenario length: fig1, duel, oracle, tslp,
	// cellular, access, accesslink, pulse, buffer, subpkt, jitter and
	// manyflow. fig3 runs its phases, huntcell its Cross schedule.
	DurationS float64 `json:"duration_s,omitempty"`
	// RateBps is the bottleneck rate: fig1, fig3, duel, tslp, cellular
	// (the fading link's mean), access (each user's access link),
	// accesslink, huntcell and manyflow.
	RateBps float64 `json:"rate_bps,omitempty"`
	// RTTMs is the base round trip: fig1, fig3, duel, tslp, cellular,
	// accesslink, huntcell and manyflow.
	RTTMs float64 `json:"rtt_ms,omitempty"`
	// Queue selects the bottleneck discipline (core.QueueKind values):
	// duel, huntcell and accesslink.
	Queue string `json:"queue,omitempty"`
	// BufferBDP sizes the bottleneck buffer: fig1, fig3, duel, huntcell
	// and manyflow (each subscriber's queue).
	BufferBDP float64 `json:"buffer_bdp,omitempty"`
	// CCAs lists congestion controllers: the two contenders for duel,
	// the comparison set for cellular, the victim pair for manyflow,
	// and the victim (huntcell) or the bulk update's controller
	// (accesslink) as CCAs[0].
	CCAs []string `json:"ccas,omitempty"`
	// Phases lists fig3's cross-traffic phases in order;
	// PhaseDurationS is each phase's length.
	Phases         []string `json:"phases,omitempty"`
	PhaseDurationS float64  `json:"phase_duration_s,omitempty"`
	// Flows is the flow count: subpkt's Reno flows, manyflow's
	// background users, fig2's dataset size.
	Flows int `json:"flows,omitempty"`
	// Trials is the randomized-trial count (oracle).
	Trials int `json:"trials,omitempty"`
	// FaultProfile names a registered fault profile (faults.Names) to
	// impose on the bottleneck; FaultSeed drives its injectors: fig3,
	// duel and huntcell.
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	// Fault is an inline fault config (huntcell); it takes precedence
	// over FaultProfile and may carry impairments no named profile has
	// (rate oscillation, arbitrary outage placement). Hunt genomes
	// decode into this field.
	Fault *faults.Config `json:"fault,omitempty"`
	// Cross is the huntcell cross-traffic schedule; Probe switches the
	// cell's main flow from a victim bulk transfer to the Nimbus
	// elasticity probe.
	Cross []traffic.Phase `json:"cross,omitempty"`
	Probe bool            `json:"probe,omitempty"`
	// FluidAbove switches manyflow background users with index >= the
	// cutoff to the fluid aggregate (hybrid fidelity); 0 disables.
	FluidAbove int `json:"fluid_above,omitempty"`
}

// ParseSpec decodes a spec file, rejecting unknown fields: a typo in
// a replay must not silently change the scenario.
func ParseSpec(b []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return sp, nil
}

// Duration converts DurationS, or returns 0 when unset.
func (s Spec) Duration() time.Duration {
	return time.Duration(s.DurationS * float64(time.Second))
}

// RTT converts RTTMs, or returns 0 when unset.
func (s Spec) RTT() time.Duration {
	return time.Duration(s.RTTMs * float64(time.Millisecond))
}

// Manifest is the run-log header every trace artifact of a run of s
// carries: the -trace log and the flight-recorder dump differ only in
// what the writer adds under Extra.
func (s Spec) Manifest() obs.Manifest {
	return obs.Manifest{
		Tool:       "ccac/" + s.Experiment,
		Seed:       s.Seed,
		FaultSeed:  s.FaultSeed,
		Profile:    s.FaultProfile,
		RateBps:    s.RateBps,
		RTTSeconds: s.RTT().Seconds(),
		Queue:      s.Queue,
		BufferBDP:  s.BufferBDP,
		Phases:     s.Phases,
		Extra:      map[string]string{"spec_hash": s.Hash()},
	}
}

// CanonicalJSON returns the deterministic JSON encoding used for
// hashing, caching, and result diffing: encoding/json's stable output
// (struct fields in declaration order, map keys sorted) with HTML
// escaping disabled and no trailing newline. Two equal values always
// produce identical bytes.
func CanonicalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("scenario: canonical encode: %w", err)
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// specHashDomain versions the hash input so cache entries from
// incompatible spec schemas can never collide with current ones.
const specHashDomain = "ccac/spec/v1\n"

// Hash returns the spec's stable content hash: a hex-encoded SHA-256
// over a domain-separation tag plus the canonical JSON encoding. Specs
// that differ only in an omitted-vs-zero field hash identically
// (omitempty drops both); specs with any semantic difference hash
// differently. A spec hashes as given, not as the Runner resolves it
// against its registration's Defaults.
func (s Spec) Hash() string {
	b, err := CanonicalJSON(s)
	if err != nil {
		// Encoding fails only on a NaN or infinite float, which no spec
		// read from JSON or ccac's flags holds: JSON has none, and the
		// flags reject them.
		panic(err)
	}
	sum := sha256.Sum256(append([]byte(specHashDomain), b...))
	return fmt.Sprintf("%x", sum)
}

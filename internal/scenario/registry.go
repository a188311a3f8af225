package scenario

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Experiment is a named entry in the scenario registry: a default
// spec, a run function, and a table renderer. internal/core registers
// every experiment from an init beside the run function that reads its
// spec, so a program that runs experiments imports that package (this
// one never does). Run functions must be
// pure with respect to their inputs — deterministic given the spec's
// seeds, no shared mutable state — so the Runner can execute them
// concurrently and cache their results by spec hash.
type Experiment struct {
	// Name is the registry key ("fig1", "duel", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Defaults is the experiment's one default table. The Runner
	// resolves every spec against it before Run (see resolve), and
	// `ccac run <name>` starts from it, seeds included, so the spec a
	// single run prints names the link the cell ran.
	Defaults Spec
	// Run executes the experiment on a resolved spec: every key
	// Defaults sets is set. The scope carries the run's private
	// observability plumbing (nil disables it); implementations must
	// not touch package-global scopes. The returned value must be
	// canonically JSON-encodable.
	Run func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error)
	// Table renders the live result as the experiment's human table.
	// It receives exactly what Run returned.
	Table func(w io.Writer, result any)
}

var (
	regMu       sync.RWMutex
	experiments = map[string]Experiment{}
)

// Register adds an experiment to the registry. Registering a duplicate
// or nameless experiment panics: registration happens at init time and
// a conflict is a programming error.
func Register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if e.Name == "" {
		panic("scenario: Register: empty experiment name")
	}
	if e.Run == nil {
		panic(fmt.Sprintf("scenario: Register(%q): nil Run", e.Name))
	}
	if _, dup := experiments[e.Name]; dup {
		panic(fmt.Sprintf("scenario: Register(%q): duplicate", e.Name))
	}
	if e.Defaults.Experiment == "" {
		e.Defaults.Experiment = e.Name
	}
	experiments[e.Name] = e
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := experiments[name]
	if !ok {
		return Experiment{}, fmt.Errorf("scenario: unknown experiment %q (known: %v)", name, names())
	}
	return e, nil
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return names()
}

func names() []string {
	ns := make([]string, 0, len(experiments))
	for n := range experiments {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// resolve returns sp with every defaultable key it leaves at zero
// taken from def: the duration, rate, round trip, queue, buffer, CCA
// list, phase list, phase length, flow count and trial count. Seeds,
// faults, Cross, Probe and FluidAbove are never filled, since zero is
// a value there. A defaultable number that is set must be one the cell
// can run: positive, and for the duration, the one-way delay (half the
// round trip) and the phase length at least a nanosecond once
// converted. Anything else is an error, not the default run in its
// place. resolve copies sp and allocates nothing unless it fails.
func resolve(sp, def Spec) (Spec, error) {
	for _, k := range [...]struct {
		key  string
		v    float64
		runs bool
	}{
		{"duration_s", sp.DurationS, sp.Duration() > 0},
		{"rate_bps", sp.RateBps, sp.RateBps > 0},
		{"rtt_ms", sp.RTTMs, sp.RTT()/2 > 0},
		{"buffer_bdp", sp.BufferBDP, sp.BufferBDP > 0},
		{"phase_duration_s", sp.PhaseDurationS, time.Duration(sp.PhaseDurationS*float64(time.Second)) > 0},
		{"flows", float64(sp.Flows), sp.Flows > 0},
		{"trials", float64(sp.Trials), sp.Trials > 0},
	} {
		if k.v != 0 && !k.runs {
			return sp, fmt.Errorf("scenario: %s: %s %v is not positive or rounds to zero", sp.Experiment, k.key, k.v)
		}
	}
	if sp.DurationS == 0 {
		sp.DurationS = def.DurationS
	}
	if sp.RateBps == 0 {
		sp.RateBps = def.RateBps
	}
	if sp.RTTMs == 0 {
		sp.RTTMs = def.RTTMs
	}
	if sp.Queue == "" {
		sp.Queue = def.Queue
	}
	if sp.BufferBDP == 0 {
		sp.BufferBDP = def.BufferBDP
	}
	if len(sp.CCAs) == 0 {
		sp.CCAs = def.CCAs
	}
	if len(sp.Phases) == 0 {
		sp.Phases = def.Phases
	}
	if sp.PhaseDurationS == 0 {
		sp.PhaseDurationS = def.PhaseDurationS
	}
	if sp.Flows == 0 {
		sp.Flows = def.Flows
	}
	if sp.Trials == 0 {
		sp.Trials = def.Trials
	}
	return sp, nil
}

package scenario

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

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
	// Defaults is the spec the CLI starts from for `ccac run <name>`;
	// it pins the historical per-tool defaults (seeds included) so the
	// unified entrypoint reproduces the old binaries' numbers exactly.
	Defaults Spec
	// Run executes the experiment. The scope carries the run's private
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

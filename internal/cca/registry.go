package cca

import (
	"fmt"
	"sort"

	"repro/internal/transport"
)

// Factory constructs a fresh controller instance.
type Factory func() transport.CCA

var registry = map[string]Factory{
	"reno":    func() transport.CCA { return NewRenoCC() },
	"newreno": func() transport.CCA { return NewNewRenoCC() },
	"cubic":   func() transport.CCA { return NewCubicCC() },
	"bbr":     func() transport.CCA { return NewBBRCC() },
	"copa":    func() transport.CCA { return NewCopaCC() },
	"vegas":   func() transport.CCA { return NewVegasCC() },
	// "aimd" is Reno under its rule's name. The name stays: the order
	// of traffic.PhaseKinds, which lists it, encodes hunt genomes.
	"aimd": func() transport.CCA { return NewRenoCC() },
}

// New returns a fresh controller by name. Names are the lowercase
// algorithm names listed by Names.
func New(name string) (transport.CCA, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("cca: unknown algorithm %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

package scenario

// GoldenSpecs returns the specs TestExperimentGoldens pins, with their
// names, for the package's external tests.
func GoldenSpecs() (names []string, specs []Spec) {
	for _, g := range goldenSpecs {
		names = append(names, g.name)
		specs = append(specs, g.spec)
	}
	return names, specs
}

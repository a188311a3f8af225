package scenario

// Resolve is the Runner's resolver, for the tests of the external
// package, which registers core's experiments.
var Resolve = resolve

package faults

import (
	"strings"
	"testing"
)

// TestDeriveSeedPinned pins DeriveSeed's outputs: every sweep, hunt and
// many-flow cell keys its random streams on them, so a change in how
// the hash input is assembled must not move one bit. The values were
// taken from the sha256.New/Sum(nil) implementation this replaced.
func TestDeriveSeedPinned(t *testing.T) {
	for _, c := range []struct {
		base  int64
		label string
		want  int64
	}{
		{0, "", 8794265229978523055},
		{1, "", 2755993876679466876},
		{-1, "x", 2633988867444293473},
		{-9223372036854775808, "hunt/workload-seed", 5720097453200232228},
		{9223372036854775807, "census/abc/path/7", 1909341012608334282},
		{42, "manyflow/churn/1999", 2002727871185631098},
		{7, "manyflow/churn/0", 1255592384581006674},
		{-12345, "ledger/manyflow/3", 6093435266748867212},
		{1, strings.Repeat("\x00", 200), 44851593246075633},
	} {
		if got := DeriveSeed(c.base, c.label); got != c.want {
			t.Errorf("DeriveSeed(%d, %.20q) = %d, want %d", c.base, c.label, got, c.want)
		}
	}
}

// TestDeriveSeedDoesNotAllocate holds a call with a label that fits
// the stack buffer to zero allocations.
func TestDeriveSeedDoesNotAllocate(t *testing.T) {
	label := "census/" + strings.Repeat("f", 64) + "/path/1999"
	if n := testing.AllocsPerRun(100, func() { DeriveSeed(42, label) }); n != 0 {
		t.Fatalf("DeriveSeed allocates %v times a call, want 0", n)
	}
}

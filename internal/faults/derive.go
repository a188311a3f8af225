package faults

import (
	"crypto/sha256"
	"encoding/binary"
)

// DeriveSeed deterministically derives a child seed from a base seed
// and a label. Sweeps use it to give every grid point (and every
// injector role within a point) its own independent random stream
// while staying byte-for-byte reproducible from a single base seed:
// the derivation depends only on (base, label), never on execution
// order or worker assignment.
//
// The result is non-negative so it can be printed and re-entered
// through CLI flags without sign surprises.
//
// The hash input is assembled on the stack (a longer label than the
// buffer holds spills to the heap), so a call allocates nothing:
// a many-flow cell derives one seed per churn user.
func DeriveSeed(base int64, label string) int64 {
	var buf [128]byte
	in := append(binary.LittleEndian.AppendUint64(buf[:0], uint64(base)), label...)
	sum := sha256.Sum256(in)
	return int64(binary.LittleEndian.Uint64(sum[:8]) &^ (1 << 63))
}

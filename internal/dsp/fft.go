// Package dsp implements the signal-processing primitives behind the
// Nimbus elasticity metric: a radix-2 FFT, window functions, and
// spectral helpers for locating energy at the probe's pulse frequency.
package dsp

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPowerOfTwo is returned by FFT for input lengths that are not
// powers of two.
var ErrNotPowerOfTwo = errors.New("dsp: input length must be a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two >= n (and 1 for
// n <= 0).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT replaces x with its in-order discrete Fourier transform. len(x)
// must be a power of two.
func FFT(x []complex128) error {
	if !IsPowerOfTwo(len(x)) {
		return ErrNotPowerOfTwo
	}
	fft(x)
	return nil
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum in a new slice. len(x) must be a power of two.
func FFTReal(x []float64) ([]complex128, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	if err := FFT(cx); err != nil {
		return nil, err
	}
	return cx, nil
}

// fft is the transform itself: an iterative radix-2 Cooley-Tukey pass
// over x in place, whose length is a power of two.
func fft(x []complex128) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(trailingZeros(n))
	for i := 0; i < n; i++ {
		if j := int(reverseBits(uint64(i)) >> shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies. Those of one size touch disjoint pairs, so each
	// twiddle factor is computed once and applied across the blocks.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			w := cmplx.Exp(complex(0, step*float64(k)))
			for start := 0; start < n; start += size {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

func trailingZeros(n int) int {
	z := 0
	for n&1 == 0 {
		n >>= 1
		z++
	}
	return z
}

func reverseBits(v uint64) uint64 {
	v = v>>1&0x5555555555555555 | v&0x5555555555555555<<1
	v = v>>2&0x3333333333333333 | v&0x3333333333333333<<2
	v = v>>4&0x0F0F0F0F0F0F0F0F | v&0x0F0F0F0F0F0F0F0F<<4
	v = v>>8&0x00FF00FF00FF00FF | v&0x00FF00FF00FF00FF<<8
	v = v>>16&0x0000FFFF0000FFFF | v&0x0000FFFF0000FFFF<<16
	v = v>>32 | v<<32
	return v
}

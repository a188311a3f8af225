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

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. The input is not modified.
// len(x) must be a power of two.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return nil, ErrNotPowerOfTwo
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(trailingZeros(n))
	for i := 0; i < n; i++ {
		out[reverseBits(uint64(i))>>shift] = x[i]
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum. len(x) must be a power of two.
func FFTReal(x []float64) ([]complex128, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
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

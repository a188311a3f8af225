package dsp

import (
	"math"
	"math/cmplx"
)

// Hann returns an n-point Hann window. For n <= 1 it returns a window
// of ones (degenerate but safe).
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n <= 1 {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// ApplyWindow multiplies x element-wise by window w in place, over the
// shorter of the two; any rest of x is left as it was.
func ApplyWindow(x, w []float64) {
	n := min(len(x), len(w))
	for i := 0; i < n; i++ {
		x[i] *= w[i]
	}
}

// Detrend subtracts the mean of x from x in place. Removing the DC
// component before the FFT keeps spectral leakage from the (large)
// mean value out of the pulse-frequency bin.
func Detrend(x []float64) {
	if len(x) == 0 {
		return
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i, v := range x {
		x[i] = v - mean
	}
}

// Spectrum holds the single-sided amplitude spectrum of a real signal,
// and the transform buffer it was computed in: a Spectrum reused for
// signals of one length allocates only on its first Compute.
type Spectrum struct {
	// Amp[i] is the amplitude at frequency i*SampleRate/N. Amp has
	// N/2+1 bins.
	Amp []float64
	// SampleRate is the sample rate of the analyzed signal in Hz.
	SampleRate float64
	// N is the transform length.
	N int

	buf []complex128
}

// Compute sets s to the single-sided amplitude spectrum of the real
// signal x sampled at sampleRate Hz. x is zero-padded to the next power
// of two. Amplitudes are normalized so a pure sinusoid of amplitude A
// yields a bin amplitude of approximately A.
func (s *Spectrum) Compute(x []float64, sampleRate float64) {
	n := NextPowerOfTwo(len(x))
	if len(s.buf) != n {
		s.buf = make([]complex128, n)
		s.Amp = make([]float64, n/2+1)
	}
	for i, v := range x {
		s.buf[i] = complex(v, 0)
	}
	clear(s.buf[len(x):])
	fft(s.buf)
	// Normalize by the number of real samples, not the padded length,
	// so zero padding does not dilute amplitude.
	norm := float64(len(x))
	if norm == 0 {
		norm = 1
	}
	for i := range s.Amp {
		a := cmplx.Abs(s.buf[i]) / norm
		if i != 0 && i != n/2 {
			a *= 2 // fold the negative-frequency half in
		}
		s.Amp[i] = a
	}
	s.SampleRate, s.N = sampleRate, n
}

// Bin returns the index of the bin whose center frequency is nearest to
// f Hz, clamped to the valid range.
func (s *Spectrum) Bin(f float64) int {
	if s.N == 0 || s.SampleRate <= 0 {
		return 0
	}
	i := int(math.Round(f * float64(s.N) / s.SampleRate))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Amp) {
		i = len(s.Amp) - 1
	}
	return i
}

// searchBins is AmplitudeAt's half-width in bins.
const searchBins = 1

// AmplitudeAt returns the peak amplitude within +-searchBins bins around
// frequency f. A small search window tolerates frequency quantization
// between the pulse frequency and the FFT bin grid.
func (s *Spectrum) AmplitudeAt(f float64) float64 {
	c := s.Bin(f)
	lo, hi := c-searchBins, c+searchBins
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s.Amp) {
		hi = len(s.Amp) - 1
	}
	var m float64
	for i := lo; i <= hi; i++ {
		if s.Amp[i] > m {
			m = s.Amp[i]
		}
	}
	return m
}

package dsp

import (
	"math"
	"testing"
)

func TestHann(t *testing.T) {
	w := Hann(8)
	if len(w) != 8 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0] > 1e-12 || w[7] > 1e-12 {
		t.Errorf("endpoints = %v, %v, want 0", w[0], w[7])
	}
	// Symmetric.
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[7-i]) > 1e-12 {
			t.Errorf("asymmetric at %d: %v vs %v", i, w[i], w[7-i])
		}
	}
	// Degenerate sizes.
	if w := Hann(1); len(w) != 1 || w[0] != 1 {
		t.Errorf("Hann(1) = %v", w)
	}
	if w := Hann(0); len(w) != 0 {
		t.Errorf("Hann(0) = %v", w)
	}
}

func TestApplyWindow(t *testing.T) {
	got := []float64{1, 2, 3}
	ApplyWindow(got, []float64{2, 2})
	if got[0] != 2 || got[1] != 4 || got[2] != 3 {
		t.Errorf("ApplyWindow = %v, want [2 4 3]", got)
	}
}

func TestDetrend(t *testing.T) {
	got := []float64{1, 2, 3}
	Detrend(got)
	if math.Abs(got[0]+1) > 1e-12 || math.Abs(got[1]) > 1e-12 || math.Abs(got[2]-1) > 1e-12 {
		t.Errorf("Detrend = %v", got)
	}
	Detrend(nil) // nothing to do, and no panic
	// Sum of a detrended signal is ~0.
	d := []float64{5, 9, 13, 2}
	Detrend(d)
	var sum float64
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("detrended sum = %v", sum)
	}
}

func TestAmplitudeSpectrumSinusoid(t *testing.T) {
	// 5 Hz sinusoid of amplitude 3 sampled at 100 Hz for 512 samples
	// (an exact bin: 5 Hz * 512 / 100 = 25.6 — not exact, so allow the
	// +-1 bin search). Use 6.25 Hz (bin 32) for exactness first.
	const rate = 100.0
	const n = 512
	freq := 32 * rate / n // exactly bin 32
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	var spec Spectrum
	spec.Compute(x, rate)
	if got := spec.AmplitudeAt(freq); math.Abs(got-3) > 1e-9 {
		t.Errorf("amplitude = %v, want 3", got)
	}
	if got := spec.Bin(freq); got != 32 {
		t.Errorf("bin = %d, want 32", got)
	}
}

func TestAmplitudeSpectrumOffBinSearch(t *testing.T) {
	// A frequency between bins still registers within the +-1 bin
	// search window, though attenuated by leakage.
	const rate = 100.0
	const n = 512
	freq := 5.0 // bin 25.6
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	var spec Spectrum
	spec.Compute(x, rate)
	got := spec.AmplitudeAt(freq)
	if got < 1.0 || got > 2.2 {
		t.Errorf("off-bin amplitude = %v, want within [1.0, 2.2]", got)
	}
}

func TestAmplitudeSpectrumDCAndPadding(t *testing.T) {
	x := []float64{4, 4, 4, 4, 4} // length 5: padded to 8
	var spec Spectrum
	spec.Compute(x, 10)
	if spec.N != 8 {
		t.Errorf("N = %d, want 8", spec.N)
	}
	// DC normalized by real sample count.
	if math.Abs(spec.Amp[0]-4) > 1e-9 {
		t.Errorf("DC amplitude = %v, want 4", spec.Amp[0])
	}
}

// TestSpectrumReuseMatchesFresh: a Spectrum recomputed over signals of
// other lengths, padded or not, ends up exactly where a fresh one does.
func TestSpectrumReuseMatchesFresh(t *testing.T) {
	signal := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)) + float64(i%7)
		}
		return x
	}
	var reused Spectrum
	for _, n := range []int{300, 512, 5, 8, 300} {
		reused.Compute(signal(n), 100)
		var fresh Spectrum
		fresh.Compute(signal(n), 100)
		if reused.N != fresh.N || len(reused.Amp) != len(fresh.Amp) {
			t.Fatalf("n=%d: reused N %d / %d bins, fresh %d / %d", n, reused.N, len(reused.Amp), fresh.N, len(fresh.Amp))
		}
		for i := range fresh.Amp {
			if reused.Amp[i] != fresh.Amp[i] {
				t.Fatalf("n=%d: bin %d = %v reused, %v fresh", n, i, reused.Amp[i], fresh.Amp[i])
			}
		}
	}
}

func TestSpectrumBinClamping(t *testing.T) {
	spec := &Spectrum{Amp: make([]float64, 5), SampleRate: 100, N: 8}
	if got := spec.Bin(-10); got != 0 {
		t.Errorf("negative freq bin = %d", got)
	}
	if got := spec.Bin(1e9); got != 4 {
		t.Errorf("huge freq bin = %d, want 4", got)
	}
	var zero Spectrum
	if got := zero.Bin(5); got != 0 {
		t.Errorf("zero spectrum bin = %d", got)
	}
}

func TestHannReducesLeakage(t *testing.T) {
	// For an off-bin sinusoid, windowing should reduce energy far from
	// the tone relative to the rectangular window.
	const rate = 100.0
	const n = 256
	freq := 10.3
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / rate)
	}
	var rect, han Spectrum
	rect.Compute(x, rate)
	ApplyWindow(x, Hann(n))
	han.Compute(x, rate)
	farBin := rect.Bin(40)
	if han.Amp[farBin] >= rect.Amp[farBin] {
		t.Errorf("Hann should reduce far leakage: %v >= %v", han.Amp[farBin], rect.Amp[farBin])
	}
}

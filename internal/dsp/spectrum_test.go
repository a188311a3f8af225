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
	got := ApplyWindow([]float64{1, 2, 3}, []float64{2, 2})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("ApplyWindow = %v", got)
	}
}

func TestDetrend(t *testing.T) {
	got := Detrend([]float64{1, 2, 3})
	if math.Abs(got[0]+1) > 1e-12 || math.Abs(got[1]) > 1e-12 || math.Abs(got[2]-1) > 1e-12 {
		t.Errorf("Detrend = %v", got)
	}
	if got := Detrend(nil); got != nil {
		t.Errorf("Detrend(nil) = %v", got)
	}
	// Sum of a detrended signal is ~0.
	d := Detrend([]float64{5, 9, 13, 2})
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
	spec, err := AmplitudeSpectrum(x, rate)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.AmplitudeAt(freq, 0); math.Abs(got-3) > 1e-9 {
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
	spec, err := AmplitudeSpectrum(x, rate)
	if err != nil {
		t.Fatal(err)
	}
	got := spec.AmplitudeAt(freq, 1)
	if got < 1.0 || got > 2.2 {
		t.Errorf("off-bin amplitude = %v, want within [1.0, 2.2]", got)
	}
}

func TestAmplitudeSpectrumDCAndPadding(t *testing.T) {
	x := []float64{4, 4, 4, 4, 4} // length 5: padded to 8
	spec, err := AmplitudeSpectrum(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != 8 {
		t.Errorf("N = %d, want 8", spec.N)
	}
	// DC normalized by real sample count.
	if math.Abs(spec.Amp[0]-4) > 1e-9 {
		t.Errorf("DC amplitude = %v, want 4", spec.Amp[0])
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
	rect, _ := AmplitudeSpectrum(x, rate)
	han, _ := AmplitudeSpectrum(ApplyWindow(x, Hann(n)), rate)
	farBin := rect.Bin(40)
	if han.Amp[farBin] >= rect.Amp[farBin] {
		t.Errorf("Hann should reduce far leakage: %v >= %v", han.Amp[farBin], rect.Amp[farBin])
	}
}

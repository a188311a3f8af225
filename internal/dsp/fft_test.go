package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{-4, false}, {0, false}, {1, true}, {2, true}, {3, false}, {1024, true}, {1023, false}} {
		if got := IsPowerOfTwo(c.n); got != c.want {
			t.Errorf("IsPowerOfTwo(%d) = %v", c.n, got)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {1024, 1024}, {1025, 2048},
	} {
		if got := NextPowerOfTwo(c.n); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err != ErrNotPowerOfTwo {
		t.Errorf("err = %v, want ErrNotPowerOfTwo", err)
	}
	if err := FFT(make([]complex128, 0)); err != ErrNotPowerOfTwo {
		t.Errorf("err = %v, want ErrNotPowerOfTwo", err)
	}
	if _, err := FFTReal(make([]float64, 6)); err != ErrNotPowerOfTwo {
		t.Errorf("FFTReal err = %v, want ErrNotPowerOfTwo", err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// The DFT of a unit impulse is flat ones.
	X := make([]complex128, 8)
	X[0] = 1
	if err := FFT(X); err != nil {
		t.Fatal(err)
	}
	for i, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// The DFT of a constant is an impulse at DC.
	X := make([]complex128, 16)
	for i := range X {
		X[i] = 2
	}
	if err := FFT(X); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(X[0]-32) > 1e-9 {
		t.Errorf("DC = %v, want 32", X[0])
	}
	for i := 1; i < len(X); i++ {
		if cmplx.Abs(X[i]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", i, X[i])
		}
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	// A pure sinusoid at bin k concentrates energy at bins k and N-k.
	const n = 64
	const k = 5
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * k * float64(i) / n)
	}
	X, err := FFTReal(x)
	if err != nil {
		t.Fatal(err)
	}
	// |X[k]| should be n/2 for a unit sinusoid.
	if got := cmplx.Abs(X[k]); math.Abs(got-n/2) > 1e-9 {
		t.Errorf("|X[%d]| = %v, want %v", k, got, n/2)
	}
	for i := 1; i < n/2; i++ {
		if i == k {
			continue
		}
		if got := cmplx.Abs(X[i]); got > 1e-9 {
			t.Errorf("leakage at bin %d: %v", i, got)
		}
	}
}

// Property: FFT is linear and satisfies Parseval's theorem.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: FFT(a+b) = FFT(a)+FFT(b).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		FFT(a)
		FFT(b)
		FFT(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fftOutOfPlace is the transform as it was first written: out of place,
// one twiddle factor computed per butterfly. The in-place FFT must
// reproduce it bit for bit: the η values the goldens pin were computed
// through it.
func fftOutOfPlace(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	shift := 64 - uint(trailingZeros(n))
	for i := 0; i < n; i++ {
		out[reverseBits(uint64(i))>>shift] = x[i]
	}
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
	return out
}

func TestFFTMatchesOutOfPlaceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 1024; n <<= 1 {
		for trial := 0; trial < 4; trial++ {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64()*1e6, rng.NormFloat64())
			}
			want := fftOutOfPlace(x)
			if err := FFT(x); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d trial %d: bin %d = %v, reference %v", n, trial, i, x[i], want[i])
				}
			}
		}
	}
}

func BenchmarkFFT512(b *testing.B) {
	src := make([]complex128, 512)
	for i := range src {
		src[i] = complex(math.Sin(float64(i)), 0)
	}
	x := make([]complex128, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		if err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

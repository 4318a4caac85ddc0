package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalPDFStandardValues(t *testing.T) {
	// phi(0) = 1/sqrt(2*pi).
	if got := NormalPDF(0, 0, 1); !almostEq(got, InvSqrt2Pi, 1e-15) {
		t.Errorf("NormalPDF(0,0,1) = %v, want %v", got, InvSqrt2Pi)
	}
	// phi(1) = exp(-1/2)/sqrt(2*pi).
	want := math.Exp(-0.5) * InvSqrt2Pi
	if got := NormalPDF(1, 0, 1); !almostEq(got, want, 1e-15) {
		t.Errorf("NormalPDF(1,0,1) = %v, want %v", got, want)
	}
	// Scaling: phi_{mu,sigma}(x) = phi((x-mu)/sigma)/sigma.
	if got, want := NormalPDF(3, 1, 2), StdNormalPDF(1)/2; !almostEq(got, want, 1e-15) {
		t.Errorf("NormalPDF(3,1,2) = %v, want %v", got, want)
	}
}

func TestStdNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-8, 6.22096057427178e-16},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("StdNormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 20)
		return almostEq(StdNormalCDF(x)+StdNormalCDF(-x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalIntervalMass(t *testing.T) {
	// Whole line has mass ~1.
	if got := NormalIntervalMass(-50, 50, 0, 1); !almostEq(got, 1, 1e-12) {
		t.Errorf("mass(-50,50) = %v, want 1", got)
	}
	// Central interval of +-1 sigma ~ 0.6827.
	if got := NormalIntervalMass(-1, 1, 0, 1); !almostEq(got, 0.6826894921370859, 1e-12) {
		t.Errorf("mass(-1,1) = %v", got)
	}
	// Degenerate interval.
	if got := NormalIntervalMass(2, 1, 0, 1); got != 0 {
		t.Errorf("mass(2,1) = %v, want 0", got)
	}
	// Consistency with CDF difference.
	if got, want := NormalIntervalMass(0.3, 2.2, 1, 0.7), NormalCDF(2.2, 1, 0.7)-NormalCDF(0.3, 1, 0.7); !almostEq(got, want, 1e-12) {
		t.Errorf("interval mass %v != cdf diff %v", got, want)
	}
}

func TestNormalIntervalMassPartitionsUnity(t *testing.T) {
	// Summing masses of unit bins centered at integers covers the line.
	mu, sigma := 7.3, 2.1
	var total float64
	for w := -40; w <= 60; w++ {
		total += NormalIntervalMass(float64(w)-0.5, float64(w)+0.5, mu, sigma)
	}
	if !almostEq(total, 1, 1e-10) {
		t.Errorf("unit-bin masses sum to %v, want 1", total)
	}
}

func TestTruncNormalPDFIntegratesToOne(t *testing.T) {
	for _, sigma := range []float64{0.05, 0.3, 1, 5} {
		tn := NewTruncNormal(sigma)
		const steps = 200000
		var integral float64
		h := 1.0 / steps
		for i := 0; i < steps; i++ {
			integral += tn.PDF((float64(i) + 0.5) * h)
		}
		integral *= h
		if !almostEq(integral, 1, 1e-6) {
			t.Errorf("sigma=%v: integral of PDF = %v, want 1", sigma, integral)
		}
	}
}

func TestTruncNormalCDFMatchesPDF(t *testing.T) {
	tn := NewTruncNormal(0.4)
	for _, r := range []float64{0, 0.1, 0.5, 0.9, 1} {
		// Numerical integral of PDF up to r.
		const steps = 100000
		var integral float64
		h := r / steps
		for i := 0; i < steps; i++ {
			integral += tn.PDF((float64(i) + 0.5) * h)
		}
		integral *= h
		if !almostEq(integral, tn.CDF(r), 1e-6) {
			t.Errorf("CDF(%v) = %v, numeric integral = %v", r, tn.CDF(r), integral)
		}
	}
}

func TestTruncNormalSampleSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sigma := range []float64{1e-8, 0.01, 0.5, 3, 50} {
		tn := NewTruncNormal(sigma)
		for i := 0; i < 2000; i++ {
			r := tn.Sample(rng)
			if r < 0 || r > 1 || math.IsNaN(r) {
				t.Fatalf("sigma=%v: sample %v outside [0,1]", sigma, r)
			}
		}
	}
}

func TestTruncNormalSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sigma := range []float64{0.1, 0.5, 2} {
		tn := NewTruncNormal(sigma)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			sum += tn.Sample(rng)
		}
		got := sum / n
		want := tn.Mean()
		if !almostEq(got, want, 0.005) {
			t.Errorf("sigma=%v: sample mean %v, analytic mean %v", sigma, got, want)
		}
	}
}

func TestTruncNormalMeanMonotoneInSigma(t *testing.T) {
	prev := -1.0
	for _, sigma := range []float64{0.01, 0.05, 0.1, 0.3, 0.7, 1.5, 4} {
		m := NewTruncNormal(sigma).Mean()
		if m <= prev {
			t.Fatalf("mean not increasing at sigma=%v: %v <= %v", sigma, m, prev)
		}
		prev = m
	}
	// As sigma -> infinity the distribution tends to uniform, mean -> 1/2.
	if m := NewTruncNormal(1e6).Mean(); !almostEq(m, 0.5, 1e-3) {
		t.Errorf("mean at huge sigma = %v, want ~0.5", m)
	}
}

func TestTruncNormalZeroSigma(t *testing.T) {
	tn := NewTruncNormal(0)
	rng := rand.New(rand.NewSource(7))
	if got := tn.Sample(rng); got != 0 {
		t.Errorf("zero-sigma sample = %v, want 0", got)
	}
	if got := tn.Mean(); got != 0 {
		t.Errorf("zero-sigma mean = %v, want 0", got)
	}
	if got := tn.CDF(0.5); got != 1 {
		t.Errorf("zero-sigma CDF(0.5) = %v, want 1", got)
	}
}

func TestErfinvRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 1e-6, 0.1, 0.5, 0.9, 0.99, 0.99999} {
		y := erfinv(x)
		if back := math.Erf(y); !almostEq(back, x, 1e-10) {
			t.Errorf("erf(erfinv(%v)) = %v", x, back)
		}
	}
	if !math.IsInf(erfinv(1), 1) || !math.IsInf(erfinv(-1), -1) {
		t.Error("erfinv at +-1 should be infinite")
	}
}

// TestSampleTruncNormalMatchesTruncNormalSample pins the per-pair
// sampler to the TruncNormal method it shortcuts: the same values from
// the same draws, on both sides of the rejection/inverse-CDF switch at
// sigma = 2, with the RNG left in the same state.
func TestSampleTruncNormalMatchesTruncNormalSample(t *testing.T) {
	for _, s := range []float64{0, -1, 1e-6, 1, 2, 2.5, 1e6, math.NaN()} {
		a := rand.New(rand.NewSource(11))
		b := rand.New(rand.NewSource(11))
		tn := NewTruncNormal(s)
		for i := 0; i < 2000; i++ {
			got, want := SampleTruncNormal(s, a), tn.Sample(b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sigma=%v draw %d: %v, TruncNormal.Sample %v", s, i, got, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("sigma=%v: RNG streams diverge", s)
		}
	}
}

// TestNormalIntervalMassChainsErfc pins the identity the adversary's
// CLT scan relies on: the upper erfc term of [k-½, k+½] is bit-equal to
// the lower term of [k+½, k+3/2], so chaining the terms reproduces
// NormalIntervalMass exactly.
func TestNormalIntervalMassChainsErfc(t *testing.T) {
	for _, c := range []struct{ mu, sigma float64 }{{12.3, 2.1}, {40.75, 5.5}, {0.2, 0.01}} {
		upper := NormalErfc(-0.5, c.mu, c.sigma)
		for k := 0; k < 80; k++ {
			lower := upper
			upper = NormalErfc(float64(k)+0.5, c.mu, c.sigma)
			got := 0.5 * (lower - upper)
			want := NormalIntervalMass(float64(k)-0.5, float64(k)+0.5, c.mu, c.sigma)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mu=%v sigma=%v k=%d: chained %v, NormalIntervalMass %v", c.mu, c.sigma, k, got, want)
			}
		}
	}
}

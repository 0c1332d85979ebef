package scenario

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

const statDraws = 10000

// sampleStats draws n values and returns their sample mean and variance.
func sampleStats(t *testing.T, d Dist, n int, seed int64) (mean, variance float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(d.Draw(r))
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

// TestDistMoments checks each distribution's sample mean and variance over
// 10k seeded draws against the analytic values. Tolerances are ~5 standard
// errors, loose enough to never flake on a fixed seed, tight enough to catch
// an off-by-one in the support or a misweighted table.
func TestDistMoments(t *testing.T) {
	cases := []struct {
		spec               string
		mean, variance     float64
		meanTol, varTolPct float64
	}{
		// fixed: degenerate.
		{"fixed:32", 32, 0, 0, 0},
		// uniform on [10, 50]: mean 30, variance (41^2-1)/12 = 140.
		{"uniform:10:50", 30, 140, 0.6, 10},
		// normal(1000, 50): rounding perturbs nothing visible at this scale.
		{"normal:1000:50", 1000, 2500, 2.5, 10},
		// choices 10 w.p. 1/4, 30 w.p. 3/4: mean 25, variance 75.
		{"choices:10@1:30@3", 25, 75, 0.5, 10},
	}
	for _, c := range cases {
		d, err := ParseDist(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		mean, variance := sampleStats(t, d, statDraws, 1)
		if math.Abs(mean-c.mean) > c.meanTol {
			t.Errorf("%s: sample mean %.3f, want %.1f±%.1f", c.spec, mean, c.mean, c.meanTol)
		}
		wantVar := c.variance
		if tol := wantVar * c.varTolPct / 100; math.Abs(variance-wantVar) > tol {
			t.Errorf("%s: sample variance %.1f, want %.1f±%.1f", c.spec, variance, wantVar, tol)
		}
	}
}

// TestDistSupport asserts draws never escape the declared support.
func TestDistSupport(t *testing.T) {
	for spec, bounds := range map[string][2]int{
		"uniform:16:64":   {16, 64},
		"zipf:16:256":     {16, 256},
		"choices:4@1:8@2": {4, 8},
		"fixed:12":        {12, 12},
	} {
		d, err := ParseDist(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(2))
		for i := 0; i < statDraws; i++ {
			if v := d.Draw(r); v < bounds[0] || v > bounds[1] {
				t.Fatalf("%s drew %d outside [%d, %d]", spec, v, bounds[0], bounds[1])
			}
		}
	}
}

// TestZipfRankFrequency pins the power-law shape: over 10k draws the
// frequency of rank r must be non-increasing at geometrically spaced ranks
// (0, 1, 3, 7, 15, 31, 63), and the head rank must dominate — for s = 1.5
// over 64 values, rank 0 (size 2, the smallest valid one) alone carries
// ~42% of the mass.
func TestZipfRankFrequency(t *testing.T) {
	d, err := ParseDist("zipf:2:65")
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < statDraws; i++ {
		counts[d.Draw(r)-2]++
	}
	ranks := []int{0, 1, 3, 7, 15, 31, 63}
	for i := 1; i < len(ranks); i++ {
		lo, hi := ranks[i-1], ranks[i]
		if counts[hi] > counts[lo] {
			t.Errorf("rank %d drawn %d times, above rank %d's %d — not a decaying law",
				hi, counts[hi], lo, counts[lo])
		}
	}
	if frac := float64(counts[0]) / statDraws; frac < 0.35 || frac > 0.50 {
		t.Errorf("head rank carries %.1f%% of draws, want ~42%%", 100*frac)
	}
}

// TestPoissonArrivalMean checks the exponential gap generator's sample mean
// against its parameter.
func TestPoissonArrivalMean(t *testing.T) {
	p, err := ParseArrivalProc("poisson:10s")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	var sum time.Duration
	for i := 0; i < statDraws; i++ {
		g := p.Gap(r)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / statDraws
	if mean < 9500*time.Millisecond || mean > 10500*time.Millisecond {
		t.Errorf("sample mean gap %v, want 10s±500ms", mean)
	}
	f, err := ParseArrivalProc("fixed:3s")
	if err != nil {
		t.Fatal(err)
	}
	if g := f.Gap(r); g != 3*time.Second {
		t.Errorf("fixed gap %v, want 3s", g)
	}
}

// TestGenerateSeedDeterminism pins the reproducibility contract the whole
// scenario engine rests on: the same spec expands to a byte-identical
// arrival stream every time, and a different seed expands differently.
func TestGenerateSeedDeterminism(t *testing.T) {
	spec, err := ParseSpec("jobs=100,size=zipf:2:64,arrival=poisson:5s,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different arrival streams")
	}
	spec.Seed = 8
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical arrival streams")
	}
}

package workload

import "testing"

func TestKeyStreamDeterministic(t *testing.T) {
	a := KeyStream(1000, 500, 1.5, 42)
	b := KeyStream(1000, 500, 1.5, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := KeyStream(1000, 500, 1.5, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
	for i, k := range a {
		if k < 0 || k >= 500 {
			t.Fatalf("key %d at %d outside key space", k, i)
		}
	}
}

// A chi-square-style check pinning the skew knob: against the uniform
// expectation, a uniform stream's statistic stays near its degrees of
// freedom while a zipfian stream's explodes; and the top-1% hot mass
// rises monotonically with the exponent.
func TestKeyStreamSkew(t *testing.T) {
	const n, space = 20000, 1000

	chiSq := func(keys []int64) float64 {
		counts := KeyCounts(keys)
		expected := float64(n) / float64(space)
		s := 0.0
		for k := int64(0); k < space; k++ {
			d := float64(counts[k]) - expected
			s += d * d / expected
		}
		return s
	}

	// For 999 degrees of freedom the 99.9th percentile is ~1150; allow
	// wide slack on the uniform side and demand an order of magnitude
	// more on the skewed side.
	uni := chiSq(KeyStream(n, space, 0, 7))
	if uni > 1300 {
		t.Fatalf("uniform stream chi-square %v implausibly high", uni)
	}
	skewed := chiSq(KeyStream(n, space, 1.5, 7))
	if skewed < 10*1300 {
		t.Fatalf("skewed stream chi-square %v too close to uniform", skewed)
	}

	topK := space / 100 // top 1% of keys
	prev := -1.0
	for _, s := range []float64{0, 1.2, 1.5, 2.0} {
		m := HotMass(KeyStream(n, space, s, 7), topK)
		if m <= prev {
			t.Fatalf("hot mass not increasing with skew: %v at s=%v (prev %v)", m, s, prev)
		}
		prev = m
	}
	// Pin the regimes: uniform top-1% mass ≈ 1%-ish; zipf s=1.5 carries
	// the bulk of the stream on its hot set.
	if u := HotMass(KeyStream(n, space, 0, 7), topK); u > 0.05 {
		t.Fatalf("uniform hot mass %v too concentrated", u)
	}
	if z := HotMass(KeyStream(n, space, 1.5, 7), topK); z < 0.5 {
		t.Fatalf("zipf 1.5 hot mass %v too flat", z)
	}
}

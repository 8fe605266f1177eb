package workload

import (
	"math/rand"
	"sort"
)

// Skewed update-key streams: a raw key sequence (no transaction
// framing) and its per-key frequencies, for the hierarchy demo and
// benchmarks that measure deferred maintenance under skew. Generation
// is deterministic per seed.

// KeyStream draws n update keys over [0, keySpace). skew ≤ 1 draws
// uniformly; skew > 1 draws Zipf ranks with that s parameter,
// scattered over the key space exactly as Generate does.
func KeyStream(n int, keySpace int64, skew float64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if skew > 1 {
		zipf = rand.NewZipf(rng, skew, 1, uint64(keySpace-1))
	}
	out := make([]int64, n)
	for i := range out {
		if zipf != nil {
			out[i] = int64((zipf.Uint64() * 2654435761) % uint64(keySpace))
		} else {
			out[i] = rng.Int63n(keySpace)
		}
	}
	return out
}

// KeyCounts tallies a stream's per-key frequencies.
func KeyCounts(keys []int64) map[int64]int {
	c := make(map[int64]int)
	for _, k := range keys {
		c[k]++
	}
	return c
}

// HotMass returns the fraction of the stream carried by the topK most
// frequent keys — the quantity a zipfian stream concentrates and a
// uniform stream spreads thin.
func HotMass(keys []int64, topK int) float64 {
	if len(keys) == 0 || topK <= 0 {
		return 0
	}
	counts := KeyCounts(keys)
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if topK > len(freqs) {
		topK = len(freqs)
	}
	hot := 0
	for _, c := range freqs[:topK] {
		hot += c
	}
	return float64(hot) / float64(len(keys))
}

package workload

import "math/rand"

// Skewed update-key streams: a raw key sequence (no transaction
// framing), for the hierarchy demo and benchmarks that measure deferred
// maintenance under skew. Generation
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

package bloom

import "math"

// Hashes returns the number of hash probes per key.
func (f *Filter) Hashes() int { return f.k }

// EstimatedFPRate returns the expected false-positive probability for
// the current fill: (fraction of bits set)^k.
func (f *Filter) EstimatedFPRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

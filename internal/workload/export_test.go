package workload

import "sort"

// Counts reports the number of update and query operations in a stream.
func Counts(ops []Operation) (updates, queries int) {
	for _, op := range ops {
		if op.Kind == OpUpdate {
			updates++
		} else {
			queries++
		}
	}
	return
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

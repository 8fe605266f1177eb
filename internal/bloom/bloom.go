// Package bloom implements the Bloom filter [Bloo70] used to screen
// accesses to differential files, following the design of Severance and
// Lohman [Seve76] that Hanson adopts for hypothetical relations (§2.2.2):
// before probing the AD file for a key, the filter is consulted; a zero
// bit proves the key absent, so the base relation can be read directly
// with no extra I/O. The false-positive rate — the probability of a
// wasted AD probe — can be made arbitrarily small by increasing the
// bit-array size m.
package bloom

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Filter is a classic Bloom filter with double hashing. The zero value
// is not usable; construct with New or NewForRate.
type Filter struct {
	bits   []uint64
	m      uint64 // number of bits
	k      int    // number of hash functions
	n      int    // number of keys added since last reset
	adds   uint64 // lifetime adds (for diagnostics)
	resets uint64 // lifetime resets
}

// New creates a filter with m bits and k hash functions. m is rounded
// up to a multiple of 64; m and k must be positive.
func New(m uint64, k int) *Filter {
	if m == 0 {
		m = 64
	}
	if k <= 0 {
		k = 1
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewForRate sizes a filter for an expected number of keys and a target
// false-positive rate using the standard optima
//
//	m = -n·ln(p)/(ln 2)²,  k = (m/n)·ln 2.
//
// This is the "design a Bloom filter with any desired ability to screen
// out accesses" knob of [Seve76] that the paper invokes to justify
// counting a single I/O per HR read.
func NewForRate(expectedKeys int, fpRate float64) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	ln2 := math.Ln2
	m := math.Ceil(-float64(expectedKeys) * math.Log(fpRate) / (ln2 * ln2))
	k := int(math.Round(m / float64(expectedKeys) * ln2))
	if k < 1 {
		k = 1
	}
	return New(uint64(m), k)
}

// hash2 derives two independent 64-bit hashes of the key; the k probe
// positions are h1 + i·h2 (Kirsch–Mitzenmacher double hashing).
func hash2(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h.Write([]byte{0x9e, 0x37, 0x79, 0xb9}) // golden-ratio salt
	h2 := h.Sum64() | 1                     // odd, so probes cover all residues
	return h1, h2
}

// Add inserts a key.
func (f *Filter) Add(key string) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.n++
	f.adds++
}

// MayContain reports whether the key might be present. A false result
// is definitive (the key was never added since the last Reset).
func (f *Filter) MayContain(key string) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter; the paper resets it when the hypothetical
// relation is folded into the base relation after a deferred refresh
// (A := ∅, D := ∅).
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
	f.resets++
}

// Len returns the number of keys added since the last Reset.
func (f *Filter) Len() int { return f.n }

// Bits returns the filter's bit capacity.
func (f *Filter) Bits() uint64 { return f.m }

// FillRatio returns the fraction of bits set.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.m)
}

// String summarizes the filter state.
func (f *Filter) String() string {
	return fmt.Sprintf("bloom{m=%d k=%d n=%d fill=%.3f}", f.m, f.k, f.n, f.FillRatio())
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Package agg implements incrementally maintainable aggregate states
// (Hanson §3.6): "a state for the aggregate, functions for updating it
// in case of deletion or insertion of values in the set being
// aggregated, and a function for computing the current value of the
// aggregate from the state."
//
// Sum, count and average are fully incremental over finite values. Min
// and max — an extension beyond the paper's list — are incremental on
// insert but may require recomputation when the current extreme is
// deleted, and every kind does when a NaN or ±Inf is; Delete reports
// this so the caller can rescan (a charged operation in the engine).
//
// The state encodes to a few dozen bytes, which is the paper's point:
// the whole aggregate state fits in (far less than) one disk block, so
// a query costs a single page read.
package agg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind selects the aggregate function.
type Kind uint8

const (
	// Count counts tuples.
	Count Kind = iota
	// Sum totals a numeric column.
	Sum
	// Avg averages a numeric column.
	Avg
	// Min tracks the minimum of a numeric column.
	Min
	// Max tracks the maximum of a numeric column.
	Max
	// Var tracks the population variance via running sums of values
	// and squares (an extension beyond the paper's list; fully
	// incremental like Sum/Avg).
	Var
	// StdDev tracks the population standard deviation (sqrt of Var).
	StdDev
)

// String returns the SQL-ish name.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Var:
		return "VAR"
	case StdDev:
		return "STDDEV"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Incremental reports whether the kind supports deletion of a finite
// value without ever needing recomputation.
func (k Kind) Incremental() bool {
	switch k {
	case Count, Sum, Avg, Var, StdDev:
		return true
	}
	return false
}

// State is an aggregate's running state.
type State struct {
	kind    Kind
	count   int64
	sum     float64
	sumSq   float64 // running sum of squares (Var/StdDev)
	extreme float64 // current min or max
}

// NewState creates an empty state of the given kind.
func NewState(kind Kind) *State { return &State{kind: kind} }

// Kind returns the aggregate kind.
func (s *State) Kind() Kind { return s.kind }

// Count returns the number of values currently aggregated.
func (s *State) Count() int64 { return s.count }

// Insert folds one value into the state. MIN and MAX fold with
// math.Min and math.Max, so a NaN propagates as it does through SUM, in
// any order of insertion.
func (s *State) Insert(v float64) {
	switch {
	case s.count == 0 && (s.kind == Min || s.kind == Max):
		s.extreme = v
	case s.kind == Min:
		s.extreme = math.Min(s.extreme, v)
	case s.kind == Max:
		s.extreme = math.Max(s.extreme, v)
	}
	s.count++
	s.sum += v
	s.sumSq += v * v
}

// Delete removes one value from the state. It reports needRecompute =
// true, in which case the caller must rebuild the state from the
// underlying set (Rebuild or a fresh NewState + Inserts), when the
// deleted value was (at) a Min/Max's current extreme, and for every kind
// when it was a NaN or ±Inf: no subtraction takes one out of a sum.
func (s *State) Delete(v float64) (needRecompute bool) {
	s.count--
	s.sum -= v
	s.sumSq -= v * v
	if s.count <= 0 {
		s.count = 0
		s.sum = 0
		s.sumSq = 0
		s.extreme = 0
		return false
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return true
	}
	switch s.kind {
	case Min:
		return v <= s.extreme
	case Max:
		return v >= s.extreme
	}
	return false
}

// Value returns the aggregate's current value; ok is false when the
// aggregate is undefined (avg/min/max of an empty set).
func (s *State) Value() (v float64, ok bool) {
	switch s.kind {
	case Count:
		return float64(s.count), true
	case Sum:
		return s.sum, true
	case Avg:
		if s.count == 0 {
			return 0, false
		}
		return s.sum / float64(s.count), true
	case Min, Max:
		if s.count == 0 {
			return 0, false
		}
		return s.extreme, true
	case Var, StdDev:
		if s.count == 0 {
			return 0, false
		}
		mean := s.sum / float64(s.count)
		variance := s.sumSq/float64(s.count) - mean*mean
		if variance < 0 {
			variance = 0 // floating-point cancellation guard
		}
		if s.kind == Var {
			return variance, true
		}
		return math.Sqrt(variance), true
	}
	return 0, false
}

// Components exposes the state's raw parts for external storage (the
// grouped-aggregate store keeps them as row columns).
func (s *State) Components() (count int64, sum, sumSq, extreme float64) {
	return s.count, s.sum, s.sumSq, s.extreme
}

// Restore sets the state's raw parts (inverse of Components).
func (s *State) Restore(count int64, sum, sumSq, extreme float64) {
	s.count, s.sum, s.sumSq, s.extreme = count, sum, sumSq, extreme
}

// Reset empties the state.
func (s *State) Reset() {
	s.count = 0
	s.sum = 0
	s.sumSq = 0
	s.extreme = 0
}

// Rebuild resets the state and folds in every value; the recovery path
// after Delete reports needRecompute.
func (s *State) Rebuild(values []float64) {
	s.Reset()
	for _, v := range values {
		s.Insert(v)
	}
}

// EncodedSize is the byte size of an encoded state.
const EncodedSize = 1 + 8 + 8 + 8 + 8

// Encode appends the state's binary form to dst. It is 33 bytes —
// comfortably within one disk block, per §3.6.
func (s *State) Encode(dst []byte) []byte {
	dst = append(dst, byte(s.kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.count))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.sum))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.sumSq))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.extreme))
	return dst
}

// DecodeState parses a state from src.
func DecodeState(src []byte) (*State, error) {
	if len(src) < EncodedSize {
		return nil, fmt.Errorf("agg: short state buffer (%d bytes)", len(src))
	}
	k := Kind(src[0])
	if k > StdDev {
		return nil, fmt.Errorf("agg: unknown kind %d", src[0])
	}
	return &State{
		kind:    k,
		count:   int64(binary.BigEndian.Uint64(src[1:])),
		sum:     math.Float64frombits(binary.BigEndian.Uint64(src[9:])),
		sumSq:   math.Float64frombits(binary.BigEndian.Uint64(src[17:])),
		extreme: math.Float64frombits(binary.BigEndian.Uint64(src[25:])),
	}, nil
}

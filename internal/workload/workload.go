// Package workload realizes the paper's parametric workload (§3.1) as
// concrete operation streams: k update transactions of l tuple
// modifications each, interleaved evenly with q view queries that each
// retrieve a fraction fv of the view. Generation is deterministic per
// seed.
//
// The data layout matches the model's assumptions exactly:
//
//   - R (and R1) holds N tuples with unique clustering keys 0..N−1;
//     the view predicate is key < f·N, so the selectivity is exactly f
//     and the predicate field is the clustering field.
//   - R2 holds fR2·N tuples keyed 0..fR2·N−1 on the join column, and
//     every R1 tuple carries a join value in that range, so each
//     restricted R1 tuple joins exactly one R2 tuple.
//   - An update modifies a tuple's payload (not its key), so it is a
//     same-key delete+insert — the shape §2.2.2's three-I/O walkthrough
//     prices.
//   - A query retrieves a contiguous key range covering a fraction fv
//     of the view.
package workload

import (
	"fmt"
	"math/rand"

	"viewmat/internal/costmodel"
)

// OpKind distinguishes operations.
type OpKind int

const (
	// OpUpdate is one update transaction (l tuple modifications).
	OpUpdate OpKind = iota
	// OpQuery is one view query.
	OpQuery
)

// Operation is one workload step.
type Operation struct {
	Kind OpKind
	// Keys lists the clustering keys the transaction updates (length l).
	Keys []int64
	// NewPayload carries one fresh payload value per updated key.
	NewPayload []int64
	// QueryLo/QueryHi bound the query's key range (inclusive).
	QueryLo, QueryHi int64
}

// Spec configures generation.
type Spec struct {
	Params costmodel.Params
	Seed   int64
	// Skew selects the update-key distribution: 0 (default) is the
	// paper's uniform assumption; values > 1 draw keys from a Zipf
	// distribution with that s parameter, concentrating updates on hot
	// keys. Skew is an ablation knob: hot keys saturate the Yao
	// function sooner, which is exactly the regime where deferred
	// refresh's batching pays (§4).
	Skew float64
}

// Generate produces the interleaved operation stream: k update
// transactions and q queries, spread evenly (u = k·l/q updated tuples
// between consecutive queries on average, as the model assumes).
func Generate(spec Spec) ([]Operation, error) {
	p := spec.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := int(p.K + 0.5)
	q := int(p.Q + 0.5)
	l := int(p.L + 0.5)
	if q == 0 {
		return nil, fmt.Errorf("workload: q must be ≥ 1")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := int64(p.N)
	var zipf *rand.Zipf
	if spec.Skew > 1 {
		zipf = rand.NewZipf(rng, spec.Skew, 1, uint64(n-1))
		if zipf == nil {
			return nil, fmt.Errorf("workload: invalid skew %v", spec.Skew)
		}
	}
	drawKey := func() int64 {
		if zipf != nil {
			// Scatter the Zipf ranks over the key space so the hot
			// set is not all inside (or outside) the view predicate.
			return int64((zipf.Uint64() * 2654435761) % uint64(n))
		}
		return rng.Int63n(n)
	}
	viewTuples := int64(p.F * p.N)
	if viewTuples < 1 {
		viewTuples = 1
	}
	span := int64(p.FV * float64(viewTuples))
	if span < 1 {
		span = 1
	}

	ops := make([]Operation, 0, k+q)
	// Interleave by error diffusion so updates and queries spread
	// evenly whatever the ratio.
	uAcc, qAcc := 0, 0
	for len(ops) < k+q {
		// Choose whichever stream is furthest behind its quota.
		updBehind := float64(uAcc+1)/float64(k+1) <= float64(qAcc+1)/float64(q+1)
		if (updBehind && uAcc < k) || qAcc >= q {
			keys := make([]int64, l)
			payload := make([]int64, l)
			for i := range keys {
				keys[i] = drawKey()
				payload[i] = rng.Int63()>>1 | 1
			}
			ops = append(ops, Operation{Kind: OpUpdate, Keys: keys, NewPayload: payload})
			uAcc++
		} else {
			lo := int64(0)
			if viewTuples > span {
				lo = rng.Int63n(viewTuples - span + 1)
			}
			ops = append(ops, Operation{Kind: OpQuery, QueryLo: lo, QueryHi: lo + span - 1})
			qAcc++
		}
	}
	return ops, nil
}

// Phase is one segment of a phase-shifted workload: a full Spec-shaped
// parameter set active for its own k+q operations. A mid-script shift
// between phases with different k/q mixes is the scenario an adaptive
// strategy advisor has to survive: the measured parameters cross the
// model's strategy boundaries and the right choice changes underneath
// a running system.
type Phase struct {
	Params costmodel.Params
	// Skew overrides the stream's update-key skew for this phase
	// (0 = uniform).
	Skew float64
}

// GeneratePhased concatenates one generated stream per phase, all over
// the same key space (every phase's N must agree — the data does not
// change shape mid-run, only the operation mix does). It returns the
// combined stream and the operation index at which each phase begins.
func GeneratePhased(seed int64, phases ...Phase) ([]Operation, []int, error) {
	if len(phases) == 0 {
		return nil, nil, fmt.Errorf("workload: no phases")
	}
	n := phases[0].Params.N
	var ops []Operation
	starts := make([]int, 0, len(phases))
	for i, ph := range phases {
		if ph.Params.N != n {
			return nil, nil, fmt.Errorf("workload: phase %d changes N (%v → %v); phases share one key space", i, n, ph.Params.N)
		}
		starts = append(starts, len(ops))
		// Distinct per-phase seeds keep the phases independent while
		// the whole run stays deterministic in the top-level seed.
		seg, err := Generate(Spec{Params: ph.Params, Seed: seed + int64(i)*1_000_003, Skew: ph.Skew})
		if err != nil {
			return nil, nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		ops = append(ops, seg...)
	}
	return ops, starts, nil
}

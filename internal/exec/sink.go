package exec

import (
	"fmt"

	"viewmat/internal/vec"
)

// DeltaApply is the maintenance sink: each projected row is applied to
// the materialized store with its polarity (insert increments the
// duplicate count, delete decrements it). The store I/O is bracketed,
// so the view-side C2·(3+Hvi)·X term lands on this operator. Each
// batch's live rows, both polarities, go to one apply call, which
// applies them strictly in stream order; the first error stops the
// pipeline with the prefix before the failing row applied (a
// duplicate-count underflow stops it there). Batches pass through so
// sequenced pipelines compose.
type DeltaApply struct {
	base
	label Label
	in    [1]Operator // the input: Children hands it out unallocated
	apply func([]Row) error
	rows  []Row // a batch's live rows, reused batch to batch
}

// NewDeltaApply builds the materialization sink from the caller's apply
// effect.
func NewDeltaApply(o Options, label Label, input Operator, apply func([]Row) error) *DeltaApply {
	return &DeltaApply{base: o.base(), label: label, in: [1]Operator{input}, apply: apply}
}

func (d *DeltaApply) Open() error { return d.in[0].Open() }

func (d *DeltaApply) NextBatch() (*vec.Batch, error) {
	b, err := d.in[0].NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	err = d.bracket(func() error {
		d.rows = appendLiveRows(d.rows[:0], b)
		if len(d.rows) == 0 {
			return nil
		}
		return d.apply(d.rows)
	})
	clear(d.rows) // keep no batch's values alive
	if err != nil {
		return nil, err
	}
	return d.emitBatch(b), nil
}

func (d *DeltaApply) Close() error         { return d.in[0].Close() }
func (d *DeltaApply) Children() []Operator { return d.in[:] }
func (d *DeltaApply) Stats() OpStats       { return d.stats() }
func (d *DeltaApply) Describe() string     { return fmt.Sprintf("DeltaApply(%s)", d.label) }

// Fold configures an AggFold: either a per-row closure, or a typed
// fold over one slot-0 column (the value reaches the closure through
// tuple.Value.AsFloat semantics) that skips the row gather entirely.
type Fold struct {
	// Row folds a gathered row (used when the fold needs more than one
	// column, e.g. grouped aggregates).
	Row func(Row)
	// Col/Val fold slot-0 column Col as a float with the row's delta
	// polarity — the vectorized fast path.
	Col int
	Val func(v float64, insert bool)
}

// AggFold folds each row into an aggregate state via the caller's
// fold (Model 3's in-memory fold; the fold itself is uncharged — any
// screening was paid upstream).
type AggFold struct {
	base
	label Label
	in    [1]Operator // the input: Children hands it out unallocated
	fold  Fold
}

// NewAggFold builds the aggregate-fold sink.
func NewAggFold(o Options, label Label, input Operator, fold Fold) *AggFold {
	return &AggFold{label: label, in: [1]Operator{input}, fold: fold}
}

func (a *AggFold) Open() error { return a.in[0].Open() }

func (a *AggFold) NextBatch() (*vec.Batch, error) {
	b, err := a.in[0].NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if a.fold.Val != nil && b.HasSlot(0) {
		col := &b.Slots[0][a.fold.Col]
		for k := 0; k < b.LiveCount(); k++ {
			i := b.LiveIndex(k)
			a.fold.Val(col.Float64(i), b.InsertAt(i))
		}
	} else {
		for k := 0; k < b.LiveCount(); k++ {
			a.fold.Row(rowAt(b, b.LiveIndex(k)))
		}
	}
	return a.emitBatch(b), nil
}

func (a *AggFold) Close() error         { return a.in[0].Close() }
func (a *AggFold) Children() []Operator { return a.in[:] }
func (a *AggFold) Stats() OpStats       { return a.stats() }
func (a *AggFold) Describe() string     { return fmt.Sprintf("AggFold(%s)", a.label) }

// StateWrite runs one bracketed side effect — persisting an aggregate
// page, flushing group rows — as a leaf pipeline step. It emits no
// rows; sequence it after the fold that produced the state.
type StateWrite struct {
	base
	label Label
	fn    func() error
	done  bool
}

// NewStateWrite builds the side-effect step.
func NewStateWrite(o Options, label Label, fn func() error) *StateWrite {
	return &StateWrite{base: o.base(), label: label, fn: fn}
}

func (w *StateWrite) Open() error { return nil }

func (w *StateWrite) NextBatch() (*vec.Batch, error) {
	if w.done {
		return nil, nil
	}
	w.done = true
	if err := w.bracket(w.fn); err != nil {
		return nil, err
	}
	return nil, nil
}

func (w *StateWrite) Close() error         { return nil }
func (w *StateWrite) Children() []Operator { return nil }
func (w *StateWrite) Stats() OpStats       { return w.stats() }
func (w *StateWrite) Describe() string     { return fmt.Sprintf("StateWrite(%s)", w.label) }

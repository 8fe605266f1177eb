// Package exec is the engine's physical-operator layer: a batch-at-a-
// time (MonetDB/X100-style) iterator model over the storage substrates,
// with per-operator instrumentation that rolls up into the same
// storage.Meter the cost model prices. Operators exchange *vec.Batch —
// up to 1024 rows held as typed column vectors plus a selection vector
// and delta-polarity bitmap — so filters, projections, and agg folds
// run as tight typed loops; a thin row adapter (rowAt/appendRow)
// bridges to the per-tuple callbacks core still supplies.
//
// The core.Database methods are thin planners — they translate a view
// definition plus the current physical state (clustering, secondary
// indexes, pending HR changes) into a tree of these operators and drain
// it. Every metered charge issued while a tree runs is attributed to
// exactly one operator (leaves bracket their storage calls; Filter and
// join operators record the C1 screens they issue themselves), so the
// sum of per-operator stats over a tree equals the Meter delta spanning
// its execution. Batching preserves that invariant exactly: brackets
// around a batch-filling loop absorb the same charges the per-row
// brackets did, screens are issued per logical input row, and
// OpStats.RowsOut still counts logical rows — only the new
// OpStats.Batches differs from the serial row path.
//
// A tree's operators share its Options' Meter, which in the engine is
// the meter scope of the one operation the tree runs in; no other
// goroutine charges it, so the attribution is exact however trees run
// concurrently.
package exec

import (
	"slices"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Row is the row-at-a-time view of one batch entry: slot bindings to
// base tuples, the projected output values once a Project has run, and
// the delta polarity for maintenance pipelines. Core callbacks
// (projection target lists, delta-apply effects) still speak Row; the
// operators gather one out of a batch only where such a callback needs
// it.
type Row struct {
	T0, T1 tuple.Tuple   // slot-0 / slot-1 bindings (T1 used by join rows)
	Vals   []tuple.Value // projected output values
	Insert bool          // true = insert delta, false = delete delta
	Dup    int64         // duplicate count carried by materialized-store rows (0 = 1)
}

// Options configures a plan's operators: the pool their pages are read
// and written through, the meter charges are issued against (the pool's,
// in the engine: the one operation's meter scope), and the batch size
// rows are vectorized in. BatchSize 0
// means vec.DefaultBatchSize; any other value caps every batch at that
// many rows (1 is one row a batch, the cap the batch-vs-row property
// tests hold the kernels to).
type Options struct {
	Pool      *storage.Pool
	Meter     *storage.Meter
	BatchSize int
}

// base returns an operator's instrumentation for the options.
func (o Options) base() base { return base{meter: o.Meter, pool: o.Pool} }

// Label names an operator in plan trees. It keeps the parts the name is
// made of, and Describe joins them, so a tree no one reads is never
// labelled: Label{"refresh-agg(", view, ")"} reads refresh-agg(view).
type Label [3]string

func (l Label) String() string { return l[0] + l[1] + l[2] }

// size returns the effective batch capacity.
func (o Options) size() int {
	if o.BatchSize <= 0 {
		return vec.DefaultBatchSize
	}
	return o.BatchSize
}

// OpStats is one operator's instrumentation: rows and batches it
// emitted and the metered charges it issued (page I/O, C1 screens, C3
// touches).
type OpStats struct {
	RowsOut int64
	Batches int64
	// Pruned counts pages a scan skipped via zone maps: pages the plan
	// would have read but proved irrelevant from their footers without
	// pinning them. Pruned pages are charged nothing (the paper's model
	// prices only pages actually read), so the tree==meter invariant is
	// unaffected.
	Pruned int64
	Cost   storage.Stats
}

// Operator is a physical operator in the batch-at-a-time style.
type Operator interface {
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// NextBatch returns the next non-empty batch, or nil at end of
	// stream. Emitted batches are owned by the consumer.
	NextBatch() (*vec.Batch, error)
	// Close releases resources; stats remain readable after Close.
	Close() error
	// Describe names the operator and its arguments for plan rendering.
	Describe() string
	// Children returns the operator's inputs, for tree walks.
	Children() []Operator
	// Stats returns the operator's instrumentation so far.
	Stats() OpStats
}

// base carries what every operator shares: the pool its pages go
// through, and its instrumentation.
type base struct {
	meter   *storage.Meter
	pool    *storage.Pool
	rows    int64
	batches int64
	cost    storage.Stats
}

// emitBatch counts an output batch and its live rows — with the rows a
// selecting scan dropped undecoded, which are rows scanned all the same.
func (b *base) emitBatch(bt *vec.Batch) *vec.Batch {
	b.rows += int64(bt.LiveCount() + bt.Dropped)
	b.batches++
	return bt
}

// stats snapshots the instrumentation.
func (b *base) stats() OpStats {
	return OpStats{RowsOut: b.rows, Batches: b.batches, Cost: b.cost}
}

// bracket runs fn and attributes its metered delta to this operator.
func (b *base) bracket(fn func() error) error {
	if b.meter == nil {
		return fn()
	}
	before := b.meter.Snapshot()
	err := fn()
	b.cost = b.cost.Add(b.meter.Snapshot().Sub(before))
	return err
}

// screen charges n C1 units to the meter and to this operator.
func (b *base) screen(n int64) {
	if b.meter != nil {
		b.meter.Screen(n)
	}
	b.cost.Screens += n
}

// tupleRef adapts a by-value tuple to the batch append contract: nil
// marks an absent slot. The zero tuple (no id, no values) is the "slot
// unused" sentinel rows like projected materialized-store entries carry.
func tupleRef(t *tuple.Tuple) *tuple.Tuple {
	if t.ID == 0 && len(t.Vals) == 0 {
		return nil
	}
	return t
}

// appendRow adds a row to a batch, reporting false when the batch is
// full or the row's shape doesn't match the batch's.
func appendRow(b *vec.Batch, r Row, max int) bool {
	return b.TryAppend(tupleRef(&r.T0), tupleRef(&r.T1), r.Vals, r.Insert, r.Dup, max)
}

// rowAt gathers one batch entry back into a Row for per-tuple callbacks.
func rowAt(b *vec.Batch, i int) Row {
	return Row{
		T0:     b.TupleAt(0, i),
		T1:     b.TupleAt(1, i),
		Vals:   b.OutAt(i),
		Insert: b.InsertAt(i),
		Dup:    b.DupAt(i),
	}
}

// appendLiveRows gathers every live row of b onto out — rowAt for a
// whole batch, with all the rows' values carved out of one flat array
// filled column by column instead of up to three slices made per row.
func appendLiveRows(out []Row, b *vec.Batch) []Row {
	// A row's stretch of the array: its Out values, then slot 0's, then
	// slot 1's (an absent group has no columns).
	groups := [3][]vec.Col{b.Out, b.Slots[0], b.Slots[1]}
	width := len(groups[0]) + len(groups[1]) + len(groups[2])
	n := b.LiveCount()
	flat := make([]tuple.Value, n*width)
	out = slices.Grow(out, n)
	if n > 0 {
		off := 0
		for _, cols := range groups {
			for c := range cols {
				cols[c].GatherValues(flat[off:], width, b.Sel)
				off++
			}
		}
	}
	for k := 0; k < n; k++ {
		i, pos := b.LiveIndex(k), k*width
		// carve cuts the next w values off the row's stretch.
		carve := func(w int) []tuple.Value {
			pos += w
			return flat[pos-w : pos : pos]
		}
		r := Row{Insert: b.InsertAt(i), Dup: b.DupAt(i)}
		if b.HasOut() {
			r.Vals = carve(len(b.Out))
		}
		for s := 0; s < 2; s++ {
			if !b.HasSlot(s) {
				continue
			}
			t := tuple.Tuple{ID: b.IDs[s][i]}
			if len(b.Slots[s]) > 0 {
				t.Vals = carve(len(b.Slots[s]))
			}
			if s == 0 {
				r.T0 = t
			} else {
				r.T1 = t
			}
		}
		out = append(out, r)
	}
	return out
}

// rowPacker converts a buffered row slice into size-capped batches,
// splitting at shape changes (sources whose generators mix row shapes
// stay correct, just in smaller batches).
type rowPacker struct {
	rows []Row
	i    int
	size int
}

func (p *rowPacker) next() *vec.Batch {
	if p.i >= len(p.rows) {
		return nil
	}
	b := &vec.Batch{}
	for p.i < len(p.rows) {
		if !appendRow(b, p.rows[p.i], p.size) {
			break
		}
		p.i++
	}
	return b
}

// Drain opens root, pulls it dry, closes it, and returns every batch
// produced that holds a live row, as produced: columns, selection and
// side lanes untouched. The first error aborts the drain (after
// closing).
func Drain(root Operator) ([]*vec.Batch, error) {
	if err := root.Open(); err != nil {
		root.Close()
		return nil, err
	}
	var out []*vec.Batch
	for {
		b, err := root.NextBatch()
		if err != nil {
			root.Close()
			return out, err
		}
		if b == nil {
			break
		}
		if b.LiveCount() > 0 {
			out = append(out, b)
		}
	}
	return out, root.Close()
}

// LiveRows gathers the live rows of batches back to row form, for the
// callers that act on whole rows.
func LiveRows(batches []*vec.Batch) []Row {
	var out []Row
	for _, b := range batches {
		out = appendLiveRows(out, b)
	}
	return out
}

// Run drains root discarding rows — for maintenance pipelines whose
// sinks apply side effects.
func Run(root Operator) error {
	if err := root.Open(); err != nil {
		root.Close()
		return err
	}
	for {
		b, err := root.NextBatch()
		if err != nil {
			root.Close()
			return err
		}
		if b == nil {
			return root.Close()
		}
	}
}

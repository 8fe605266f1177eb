package exec

import (
	"fmt"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Scan streams a clustered B+-tree range scan of a base relation (the
// Model-1 "clustered" plan and every restricted outer scan). A nil
// range scans the whole clustering order. Leaves decode straight into
// the batch's column lanes (no intermediate tuples); each batch fill is
// one bracketed run of the iterator, so the page reads land on this
// operator exactly as the per-row brackets did.
type Scan struct {
	base
	rel  *relation.Relation
	rg   *pred.Range
	it   *colpage.Scan
	size int
}

// NewScan builds a clustered range scan.
func NewScan(o Options, rel *relation.Relation, rg *pred.Range) *Scan {
	return &Scan{base: o.base(), rel: rel, rg: rg, size: o.size()}
}

func (s *Scan) Open() error {
	return s.bracket(func() error {
		it, err := s.rel.IterBatches(s.pool, s.rg, nil)
		s.it = it
		return err
	})
}

func (s *Scan) NextBatch() (*vec.Batch, error) {
	if s.it.Done() {
		return nil, nil
	}
	b := &vec.Batch{}
	if err := s.bracket(func() error { return s.it.Fill(b, s.size) }); err != nil {
		return nil, err
	}
	if b.NumRows() == 0 {
		return nil, nil
	}
	return s.emitBatch(b), nil
}

func (s *Scan) Close() error         { return nil }
func (s *Scan) Children() []Operator { return nil }
func (s *Scan) Stats() OpStats       { return s.stats() }
func (s *Scan) Describe() string {
	return fmt.Sprintf("Scan(%s%s)", s.rel.Name(), rangeSuffix(s.rg))
}

// SeqScan reads every tuple of a relation — the sequential plan, and
// the only clustered access path a hash relation offers. Pages decode
// straight into columnar batches at Open (inside the bracket, keeping
// every page read attributed here and ahead of any downstream pool
// activity). Prune atoms, when set, let the scan skip pages
// whose zone maps disprove the downstream predicate; skipped pages are
// never charged and are reported via Stats().Pruned. In every page it
// does read, the scan tests the atoms on the encoded lanes and decodes
// only the rows that pass (late materialization). The rows it drops are
// scanned rows all the same: they count in RowsOut and ride on the
// batches (vec.Batch.Dropped) to the charged Filter above, which screens
// them.
type SeqScan struct {
	base
	rel    *relation.Relation
	prune  []colpage.Atom
	bufs   []*vec.Batch
	i      int
	size   int
	pruned int64
}

// NewSeqScan builds a full sequential scan.
func NewSeqScan(o Options, rel *relation.Relation) *SeqScan {
	return &SeqScan{base: o.base(), rel: rel, size: o.size()}
}

// NewSeqScanPruned builds a full sequential scan that may skip pages
// the prune atoms' zone maps disprove and drops the rows they reject.
// The caller must only pass atoms entailed by the predicate of the
// Filter it stacks on the scan's output.
func NewSeqScanPruned(o Options, rel *relation.Relation, prune []colpage.Atom) *SeqScan {
	s := NewSeqScan(o, rel)
	s.prune = prune
	return s
}

func (s *SeqScan) Open() error {
	s.i = 0
	return s.bracket(func() error {
		bufs, pruned, err := s.rel.ScanAllBatches(s.pool, s.size, s.prune)
		s.bufs, s.pruned = bufs, pruned
		return err
	})
}

func (s *SeqScan) NextBatch() (*vec.Batch, error) {
	if s.i >= len(s.bufs) {
		return nil, nil
	}
	b := s.bufs[s.i]
	s.i++
	return s.emitBatch(b), nil
}

func (s *SeqScan) Close() error         { s.bufs = nil; return nil }
func (s *SeqScan) Children() []Operator { return nil }
func (s *SeqScan) Stats() OpStats {
	st := s.stats()
	st.Pruned = s.pruned
	return st
}
func (s *SeqScan) Describe() string { return fmt.Sprintf("SeqScan(%s)", s.rel.Name()) }

// StoredScan reads a view's stored copy as the multiset it stands for:
// a clustered range scan of the store's B+-tree (nil = everything)
// whose rows each carry a multiplicity. split maps one decoded batch's
// stored columns to the logical columns and the rows' multiplicities —
// for a materialized view, everything before the trailing
// duplicate-count column, and that column — or reports that the stored
// bytes do not have the shape the view writes. Without expand each stored
// row comes out once with its multiplicity in the batch's Dup lane (the
// query path, which screens stored rows); with expand it comes out
// multiplicity times (a parent scan: child views consume logical rows).
//
// The whole range is read at Open inside one bracket, so the page reads
// land on this operator and finish before anything downstream touches
// the pool.
type StoredScan struct {
	base
	label  Label
	rel    *relation.Relation
	rg     *pred.Range
	split  func([]vec.Col) ([]vec.Col, []int64, error)
	expand bool
	bufs   []*vec.Batch
	i      int
	size   int
}

// NewStoredScan builds a stored-copy scan named label in plan trees.
func NewStoredScan(o Options, label Label, rel *relation.Relation, rg *pred.Range,
	split func([]vec.Col) ([]vec.Col, []int64, error), expand bool) *StoredScan {
	return &StoredScan{base: o.base(), label: label, rel: rel, rg: rg,
		split: split, expand: expand, size: o.size()}
}

func (s *StoredScan) Open() error {
	s.i, s.bufs = 0, nil
	return s.bracket(func() error {
		it, err := s.rel.IterBatches(s.pool, s.rg, nil)
		if err != nil {
			return err
		}
		out := &vec.Batch{}
		for !it.Done() {
			b := &vec.Batch{}
			if err := it.Fill(b, s.size); err != nil {
				return err
			}
			if b.NumRows() == 0 {
				continue
			}
			cols, mult, err := s.split(b.Slots[0])
			if err != nil {
				return err
			}
			if !s.expand {
				b.Slots[0], b.Dup = cols, mult
				s.bufs = append(s.bufs, b)
				continue
			}
			// emit moves stored rows [lo, hi) onto the output batches.
			emit := func(lo, hi int) error {
				for lo < hi {
					if out.NumRows() >= s.size {
						s.bufs = append(s.bufs, out)
						out = &vec.Batch{}
					}
					take := min(hi-lo, s.size-out.NumRows())
					if !out.AppendSlot0Rows(b.IDs[0], cols, lo, lo+take) {
						return fmt.Errorf("exec: %s produced mixed-shape rows", s.label)
					}
					lo += take
				}
				return nil
			}
			for i := 0; i < len(mult); {
				// Rows standing for themselves move as one run; any
				// other row comes out multiplicity times.
				j, n := i+1, mult[i]
				for n == 1 && j < len(mult) && mult[j] == 1 {
					j++
				}
				for ; n > 0; n-- {
					if err := emit(i, j); err != nil {
						return err
					}
				}
				i = j
			}
		}
		if out.NumRows() > 0 {
			s.bufs = append(s.bufs, out)
		}
		return nil
	})
}

func (s *StoredScan) NextBatch() (*vec.Batch, error) {
	if s.i >= len(s.bufs) {
		return nil, nil
	}
	b := s.bufs[s.i]
	s.i++
	return s.emitBatch(b), nil
}

func (s *StoredScan) Close() error         { s.bufs = nil; return nil }
func (s *StoredScan) Children() []Operator { return nil }
func (s *StoredScan) Stats() OpStats       { return s.stats() }
func (s *StoredScan) Describe() string     { return s.label.String() }

// IndexFetch fetches tuples through an unclustered secondary index: a
// pointer-entry range scan followed by one clustered fetch per pointer
// — the random-page behaviour the paper prices with y(N, b, ·).
type IndexFetch struct {
	base
	rel  *relation.Relation
	col  int
	rg   *pred.Range
	buf  []tuple.Tuple
	i    int
	size int
}

// NewIndexFetch builds a secondary-index fetch on rel.col over rg.
func NewIndexFetch(o Options, rel *relation.Relation, col int, rg *pred.Range) *IndexFetch {
	return &IndexFetch{base: o.base(), rel: rel, col: col, rg: rg, size: o.size()}
}

func (s *IndexFetch) Open() error {
	s.i = 0
	return s.bracket(func() error {
		buf, err := s.rel.LookupSecondary(s.pool, s.col, s.rg)
		s.buf = buf
		return err
	})
}

func (s *IndexFetch) NextBatch() (*vec.Batch, error) {
	b := packTuples(s.buf, &s.i, s.size)
	if b == nil {
		return nil, nil
	}
	return s.emitBatch(b), nil
}

func (s *IndexFetch) Close() error         { s.buf = nil; return nil }
func (s *IndexFetch) Children() []Operator { return nil }
func (s *IndexFetch) Stats() OpStats       { return s.stats() }
func (s *IndexFetch) Describe() string {
	return fmt.Sprintf("IndexFetch(%s.%d%s)", s.rel.Name(), s.col, rangeSuffix(s.rg))
}

// packTuples fills one batch of slot-0 rows from buf starting at *i,
// advancing *i past the rows consumed. nil means buf is exhausted.
func packTuples(buf []tuple.Tuple, i *int, size int) *vec.Batch {
	if *i >= len(buf) {
		return nil
	}
	b := &vec.Batch{}
	for *i < len(buf) {
		if !appendRow(b, Row{T0: buf[*i]}, size) {
			break
		}
		*i++
	}
	return b
}

// MemSource is the one source over rows held in memory: given when the
// plan is built, or made by a generator run (bracketed) at Open, so
// plan-time work — reading an aggregate page, fetching HR net changes —
// is attributed to the tree that consumes it. Rows given up front were
// produced, and charged, elsewhere; replaying them charges nothing and
// every Open replays them from the start.
type MemSource struct {
	base
	label Label
	gen   func() ([]Row, error)
	pack  rowPacker
	// A source one of the constructors below built keeps what its name is
	// made of — kind, its fingerprint and its counts — and Describe makes
	// the name only when a plan is read.
	kind memKind
	fp   DeltaFingerprint
	n    [2]int
}

// memKind names the constructor that built a MemSource, for Describe;
// the zero kind, NewMemSource's and NewFuncSource's, is named by label.
type memKind uint8

const (
	deltaSource     memKind = iota + 1 // NewDeltaSource: label, n = (adds, dels)
	viewDeltaScan                      // NewViewDeltaScan: label the parent, n[0] rows
	sharedDeltaScan                    // NewSharedDeltaScan: fp, n[0] rows
)

// NewMemSource builds a source over rows, emitted in the order given.
func NewMemSource(o Options, label Label, rows []Row) *MemSource {
	return &MemSource{label: label, pack: rowPacker{rows: rows, size: o.size()}}
}

// NewFuncSource builds a generator-backed source.
func NewFuncSource(o Options, label Label, gen func() ([]Row, error)) *MemSource {
	return &MemSource{base: o.base(), label: label, gen: gen, pack: rowPacker{size: o.size()}}
}

// NewDeltaSource streams a transaction's (or epoch's) net change sets as
// rows with polarity: the A set first (Insert=true), then the D set.
func NewDeltaSource(o Options, label string, adds, dels []tuple.Tuple) *MemSource {
	rows := make([]Row, 0, len(adds)+len(dels))
	for _, tp := range adds {
		rows = append(rows, Row{T0: tp, Insert: true})
	}
	for _, tp := range dels {
		rows = append(rows, Row{T0: tp})
	}
	s := NewMemSource(o, Label{label}, rows)
	s.kind, s.n = deltaSource, [2]int{len(adds), len(dels)}
	return s
}

// NewViewDeltaScan replays a parent view's materialized delta log to one
// child view's apply pipeline — the delta-of-delta source of DBToaster-
// style higher-order maintenance: the parent's own differential refresh
// produced (and was charged for) these rows, so the child's screening
// and apply costs accrue downstream, keeping the tree==meter invariant
// exact.
//
// Unlike NewDeltaSource (all inserts then all deletes — fine for net
// changes against a base relation), the parent's log is replayed in
// its original order: a matview row inserted and then deleted inside
// one refresh would underflow the child's duplicate counts if the
// polarities were regrouped.
func NewViewDeltaScan(o Options, parent string, rows []Row) *MemSource {
	s := NewMemSource(o, Label{parent}, rows)
	s.kind, s.n = viewDeltaScan, [2]int{len(rows)}
	return s
}

func (s *MemSource) Open() error {
	s.pack.i = 0
	if s.gen == nil {
		return nil
	}
	return s.bracket(func() error {
		buf, err := s.gen()
		s.pack.rows = buf
		return err
	})
}

func (s *MemSource) NextBatch() (*vec.Batch, error) {
	b := s.pack.next()
	if b == nil {
		return nil, nil
	}
	return s.emitBatch(b), nil
}

func (s *MemSource) Close() error {
	if s.gen != nil {
		s.pack.rows = nil
	}
	return nil
}
func (s *MemSource) Children() []Operator { return nil }
func (s *MemSource) Stats() OpStats       { return s.stats() }
func (s *MemSource) Describe() string {
	switch s.kind {
	case deltaSource:
		return fmt.Sprintf("DeltaSource(%s a=%d d=%d)", s.label, s.n[0], s.n[1])
	case viewDeltaScan:
		return fmt.Sprintf("ViewDeltaScan(%s rows=%d)", s.label, s.n[0])
	case sharedDeltaScan:
		return fmt.Sprintf("SharedDeltaScan(%s rows=%d)", s.fp, s.n[0])
	}
	return s.label.String()
}

// Seq streams each input in order, opening an input only when the
// previous one is exhausted. It serves two roles: concatenating
// sources (pending HR adds ahead of a base scan) and sequencing the
// phases of a multi-pipeline refresh plan — lazy opening is what keeps
// a later phase's side effects from running before an earlier phase's
// rows have been applied.
type Seq struct {
	base
	label  Label
	fp     DeltaFingerprint // a shared delta build's (NewSharedDeltaBuild), named for it
	inputs []Operator
	i      int
	opened bool
}

// NewSeq builds an ordered concatenation/sequence of inputs.
func NewSeq(label Label, inputs ...Operator) *Seq {
	return &Seq{label: label, inputs: inputs}
}

func (s *Seq) Open() error { return nil }

func (s *Seq) NextBatch() (*vec.Batch, error) {
	for {
		if s.i >= len(s.inputs) {
			return nil, nil
		}
		in := s.inputs[s.i]
		if !s.opened {
			if err := in.Open(); err != nil {
				return nil, err
			}
			s.opened = true
		}
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return s.emitBatch(b), nil
		}
		if err := in.Close(); err != nil {
			return nil, err
		}
		s.i++
		s.opened = false
	}
}

func (s *Seq) Close() error {
	if s.opened && s.i < len(s.inputs) {
		s.opened = false
		return s.inputs[s.i].Close()
	}
	return nil
}

func (s *Seq) Children() []Operator { return s.inputs }
func (s *Seq) Stats() OpStats       { return s.stats() }
func (s *Seq) Describe() string {
	if s.fp.Kind != "" {
		return fmt.Sprintf("Seq(shared-delta(%s))", s.fp)
	}
	return fmt.Sprintf("Seq(%s)", s.label)
}

// rangeSuffix renders a scan range for plan display.
func rangeSuffix(rg *pred.Range) string {
	if rg == nil {
		return ""
	}
	lo, hi := "-inf", "+inf"
	lob, hib := "[", "]"
	if rg.Lo != nil {
		lo = rg.Lo.String()
		if !rg.LoInc {
			lob = "("
		}
	}
	if rg.Hi != nil {
		hi = rg.Hi.String()
		if !rg.HiInc {
			hib = ")"
		}
	}
	return fmt.Sprintf(" %s%s,%s%s", lob, lo, hi, hib)
}

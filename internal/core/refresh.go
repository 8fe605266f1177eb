package core

import (
	"fmt"

	"viewmat/internal/costmodel"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// This file is the maintenance pipeline: every differential refresh in
// the engine — immediate refresh inside a commit, query-time deferred
// refresh, hierarchy drains and RefreshAll — is "a delta feed drained through
// one apply tree per view". The strategies differ only in where the A
// and D sets come from (the feed) and when the drain runs (the trigger,
// strategy.go).
//
// The algorithm is the differential view update of §2.1 in its
// corrected form. Given the net change sets A_i, D_i for a view's base
// relations, the materialized copy V0 is advanced to V1 by evaluating
// the delta terms of the algebraic expansion and applying them with
// duplicate counts. For a two-relation join view the corrected
// expansion (with R1' = R1 − D1, R2' = R2 − D2) is
//
//	V1 = V0 ∪ πσ(A1×R2') ∪ πσ(R1'×A2) ∪ πσ(A1×A2)
//	        − πσ(D1×R2') − πσ(R1'×D2) − πσ(D1×D2)
//
// The engine refreshes against base files already at end-of-epoch
// state (immediate: the commit applied writes first; deferred: the HR
// fold ran first), so R' is reconstructed by skipping A-set ids when
// probing, and every D-set tuple is available in memory.
//
// Blakeley's original expansion [Blak86] (Appendix A) joins the D sets
// against the full start-of-epoch relations and deletes a view row up
// to three times when a joining pair is deleted together. It is not an
// engine path: the tests keep it as a plain-Go foil and hand its delete
// rows to a view's store, which refuses them (TestAppendixAAnomaly).

// deltaFeed is where one refresh's A and D sets come from. There are
// three sources, named by the fingerprint's kind: "delta" streams one
// base relation's A/D sets as they are; "join" evaluates the corrected
// expansion over two relations' A/D sets; "viewdelta" replays the
// unseen suffix of a parent view's delta log.
//
// Views whose feeds carry equal fingerprints over the same input drain
// the same delta rows, which is what lets refreshGroup build them once.
type deltaFeed struct {
	fp exec.DeltaFingerprint

	// slots are the base-relation A/D sets by view slot ("delta",
	// "join"): the commit's marked write-set or the folded AD net
	// changes.
	slots map[int]*deltas

	// parent is the view whose log suffix from position from a
	// "viewdelta" feed replays.
	parent *viewState
	from   int64

	// counted feeds (AD net changes, parent logs) bump the view's
	// refresh counter when consumed; a commit's marked sets do not —
	// ViewRefreshes counts read-triggered maintenance.
	counted bool
}

// baseFeed is the feed of a top-level view over base-relation A/D sets.
// A join view's definition holds exactly one join atom (Def validation),
// which names its fingerprint's columns.
func baseFeed(vs *viewState, slots map[int]*deltas, counted bool) deltaFeed {
	f := deltaFeed{slots: slots, counted: counted}
	if vs.def.Kind != Join {
		f.fp = exec.DeltaFingerprint{Kind: "delta", Rel1: vs.def.Relations[0]}
		return f
	}
	ja, _ := vs.def.JoinAtom()
	f.fp = exec.DeltaFingerprint{
		Kind: "join",
		Rel1: vs.def.Relations[0],
		Rel2: vs.def.Relations[1],
		Col1: joinCol(ja, 0),
		Col2: joinCol(ja, 1),
	}
	return f
}

// slot returns the A/D sets of one view slot (empty when the epoch did
// not touch that relation).
func (f deltaFeed) slot(i int) *deltas {
	if d := f.slots[i]; d != nil {
		return d
	}
	return &deltas{}
}

// consumed records that vs applied the feed. The consumed log position
// advances only here, after a successful apply, so a failed drain
// leaves the child unchanged and still pending — retrying converges.
func (f deltaFeed) consumed(vs *viewState) {
	if f.parent != nil {
		vs.parentPos, vs.parentGen = f.parent.logEnd(), f.parent.logGen
	}
	if f.counted {
		vs.refreshes++
	}
}

// feedSource is the feed's delta rows as an operator, built for the
// given views: the whole input of a private plan (one view), and the
// build a group materializes once. Only a "join" feed depends on the
// views — see joinExpansion.
func (db *op) feedSource(f deltaFeed, views []*viewState) exec.Operator {
	switch f.fp.Kind {
	case "viewdelta":
		pending := f.parent.deltaLog[f.from-f.parent.logStart:]
		rows := make([]exec.Row, len(pending))
		for i, e := range pending {
			rows[i] = exec.Row{T0: tuple.Tuple{Vals: e.vals}, Insert: e.insert}
		}
		return exec.NewViewDeltaScan(db.execOpts(), f.parent.def.Name, rows)
	case "join":
		return db.joinExpansion(f, views)
	}
	d := f.slot(0)
	return exec.NewDeltaSource(db.execOpts(), f.fp.Rel1, d.adds, d.dels)
}

// privateTree is one view's whole refresh plan over the feed: its apply
// tree over the feed built for it alone.
func (db *op) privateTree(vs *viewState, f deltaFeed) (exec.Operator, error) {
	return db.applyTree(vs, db.feedSource(f, []*viewState{vs}), false)
}

// applyTree is one view's apply pipeline over a stream of delta rows:
// its predicate screen, projection, and the fold into its stored copy.
// replay marks a shared build's rows replayed to the view.
func (db *op) applyTree(vs *viewState, src exec.Operator, replay bool) (exec.Operator, error) {
	switch vs.def.Kind {
	case SelectProject, Join:
		// The screening CPU was charged when the tuples were marked, or,
		// for a join, as the expansion handled its deltas, so the filter
		// is uncharged and only the view I/O lands on the DeltaApply sink
		// (the model's C2·(3+Hvi)·X term). A join's filter tests the
		// joined binding, the one place it is tested. On a replayed
		// shared expansion that test is charged per replayed row (the
		// k·apply term of the share-vs-rescan estimate).
		p, charge := singlePred(vs), false
		if vs.def.Kind == Join {
			p.Full, charge = true, replay
		}
		filt := exec.NewFilter(db.execOpts(), exec.Label{vs.def.Name}, src, p, charge)
		return db.matApply(vs, db.project(vs, filt)), nil
	case Aggregate:
		return db.aggRefreshTree(vs, src), nil
	case GroupedAggregate:
		return db.groupAggRefreshTree(vs, src), nil
	}
	return nil, fmt.Errorf("core: refresh of unknown view kind %v", vs.def.Kind)
}

// refreshGroup drains one feed into every view of the group, in the
// given order. A single view — or a group the cost gate declines —
// runs each view's private plan. Otherwise the feed's rows are built
// once and replayed through every consumer's apply tree: the per-view
// work collapses from O(views · delta-expansion) to O(delta-expansion +
// views · apply).
//
// Equivalence argument (what the recompute-oracle test layer and
// TestJoinExpansionTerms check): a private plan is the one-view case of
// the build — the same builder (feedSource) over the same feed, then
// the view's apply tree. For a join the builder takes the view set: for
// one view it screens the handled deltas by the view's slot-0
// restriction and the R1' scan by its predicate; for a group it screens
// nothing and scans the union of the views' intervals. Both only drop
// rows the apply tree's filter of the joined binding would drop, and
// the pipelines are order-preserving, so the rows each view keeps after
// that filter are the same rows with the same polarities in the same
// order, the applied delta sequence per view is identical and the
// stored view bytes match the private path.
//
// Meter attribution: the build's charges land once, inside the plan
// tree of the group's first consumer, wrapped in a SharedDelta node;
// every other consumer records a zero-cost SharedDeltaRef naming the
// charged view. Each recorded per-view meter delta therefore still
// equals its tree's TotalCost exactly.
func (db *op) refreshGroup(views []*viewState, f deltaFeed) error {
	if len(views) < 2 || !db.sharePays(f, views) {
		for _, vs := range views {
			tree, err := db.privateTree(vs, f)
			if err != nil {
				return err
			}
			if err := db.runPlan(vs, PlanPathRefresh, tree); err != nil {
				return err
			}
			f.consumed(vs)
			db.compactDeltaLogLocked(vs)
		}
		return nil
	}
	build := db.feedSource(f, views)
	buildDelta, batches, err := db.runTree(build, true)
	if err != nil {
		return err
	}
	rows := exec.LiveRows(batches)
	leader := views[0].def.Name
	for i, vs := range views {
		tree, err := db.applyTree(vs, exec.NewSharedDeltaScan(db.execOpts(), f.fp, rows), true)
		if err != nil {
			return err
		}
		delta, _, runErr := db.runTree(tree, false)
		shared := exec.SharedDeltaRef(f.fp, leader)
		if i == 0 {
			shared = exec.SharedDeltaNode(f.fp, len(views), build)
			delta = delta.Add(buildDelta)
		}
		db.recordPlan(vs, PlanPathRefresh, exec.SharedRefresh(vs.def.Name, shared, tree), delta)
		if runErr != nil {
			return runErr
		}
		f.consumed(vs)
		db.compactDeltaLogLocked(vs)
	}
	return nil
}

// groupViews partitions views, kept in their given order, by the delta
// input they drain: views with equal keys share a group (groups in
// first-appearance order).
func groupViews[K comparable](views []*viewState, key func(*viewState) K) [][]*viewState {
	var groups [][]*viewState
	idx := map[K]int{}
	for _, vs := range views {
		k := key(vs)
		i, seen := idx[k]
		if !seen {
			i = len(groups)
			idx[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], vs)
	}
	return groups
}

// sharePays is the cost gate. A single-relation stream or a log suffix
// is already in memory, so replaying it to every consumer costs nothing
// extra — it skips per-view source setup and keeps one plan shape, so
// it is always shared. Join groups weigh the probe/scan build against
// per-consumer screening.
func (db *Database) sharePays(f deltaFeed, views []*viewState) bool {
	if db.shareGate != nil {
		return db.shareGate()
	}
	if f.fp.Kind != "join" {
		return true
	}
	d1, d2 := f.slot(0), f.slot(1)
	n1, n2 := len(d1.adds)+len(d1.dels), len(d2.adds)+len(d2.dels)
	probePages := 1.0
	if r2 := db.rels[f.fp.Rel2]; r2.Len() > 0 {
		// A probe reads the index path plus the matching chain; the
		// chain depth is approximated by the relation's average pages
		// per tuple (distinct keys), floored at one page. Hash relations
		// with long chains under-report here, which only makes the gate
		// conservative.
		if pp := float64(r2.Pages()) / float64(r2.Len()); pp > probePages {
			probePages = pp
		}
	}
	var scanPages float64
	if n2 > 0 {
		scanPages = float64(db.rels[f.fp.Rel1].Pages())
	}
	est := costmodel.SharedDeltaEstimate{
		Views:      len(views),
		D1:         n1,
		D2:         n2,
		ProbePages: probePages,
		ScanPages:  scanPages,
		Rows:       float64(n1 + n2),
	}
	return est.Share(costmodel.Default())
}

// --- join expansions ---------------------------------------------------------

// joinExpansion is the corrected delta expansion of §2.1 over a join
// feed, built for a set of views that share it: a sequence of its
// terms, each a pipeline of joined rows with the polarity they apply
// with. It tests join values only; each view's apply tree tests the
// joined binding. For one view (a private plan) the R1 deltas are
// screened by the view's slot-0 restriction and the R1' scan by its
// predicate; for a group (the shared build) every R1 delta is handled
// and the scan covers the union of the views' intervals. Each handled
// R1-delta tuple charges one C1 unit (the model's C1·2u / C1·2l
// per-tuple join-handling cost).
func (db *op) joinExpansion(f deltaFeed, views []*viewState) exec.Operator {
	fp, o := f.fp, db.execOpts()
	d1, d2 := f.slot(0), f.slot(1)
	var restrict *pred.P // one view's predicate; a group's R1 side is unscreened
	label := exec.Label{fp.Rel1, ".handling"}
	if len(views) == 1 {
		restrict, label[1] = views[0].def.Pred, ".r1pred"
	}
	db.scans++

	// A1×R2' and D1×R2': screen the R1 deltas (charged), then probe R2
	// (end state) by join value through its clustered hash index,
	// skipping A2 ids to recover R2'.
	deltas1 := exec.NewDeltaSource(o, fp.Rel1, d1.adds, d1.dels)
	handled := exec.NewFilter(o, label, deltas1, exec.Pred{P: restrict}, true)
	phases := []exec.Operator{exec.NewLoopJoin(o, exec.LoopJoinSpec{
		Input:   handled,
		Inner:   db.rels[fp.Rel2],
		JoinCol: fp.Col1,
		SkipIDs: idSet(d2.adds),
	})}

	// The terms with an R2-side delta. The paper's Model 2 never updates
	// R2; these generalize it.
	if n2 := len(d2.adds) + len(d2.dels); n2 > 0 {
		// R1'×A2 and R1'×D2: R1 has no index on the join column, so the
		// R2 deltas are matched with one scan of R1 (end state) over the
		// views' interval on its clustering column, skipping A1 ids to
		// recover R1'. The flat screen is the per-delta handling term,
		// C1·(|A2|+|D2|).
		r1 := db.rels[fp.Rel1]
		scan := exec.NewScan(o, r1, unionInterval(views, r1.KeyCol()))
		r1p := exec.NewFilter(o, exec.Label{fp.Rel1, "'"}, scan, exec.Pred{P: restrict, SkipIDs: idSet(d1.adds)}, false)
		phases = append(phases, exec.NewMatchDeltas(o, r1p, d2.adds, d2.dels, fp.Col1, fp.Col2, int64(n2)))
		// A1×A2 (insert) and D1×D2 (delete). A1×D2 and D1×A2 are no
		// terms: a tuple cannot be inserted into R2' and deleted from it
		// in the same net set.
		phases = append(phases,
			exec.NewMatchDeltas(o, exec.NewDeltaSource(o, fp.Rel1, d1.adds, nil), d2.adds, nil, fp.Col1, fp.Col2, 0),
			exec.NewMatchDeltas(o, exec.NewDeltaSource(o, fp.Rel1, nil, d1.dels), nil, d2.dels, fp.Col1, fp.Col2, 0))
	}
	if len(views) == 1 {
		return exec.NewSeq(exec.Label{"refresh-join(", views[0].def.Name, ")"}, phases...)
	}
	return exec.NewSharedDeltaBuild(fp, phases...)
}

// unionInterval widens the views' slot-0 restriction intervals on the
// given column into one covering range; nil when any view is
// unconstrained there (forcing a full scan).
func unionInterval(views []*viewState, keyCol int) *pred.Range {
	var out *pred.Range
	for _, vs := range views {
		rg, constrained := vs.def.Pred.IntervalFor(0, keyCol)
		if !constrained {
			return nil
		}
		if out == nil {
			out = &pred.Range{Lo: rg.Lo, Hi: rg.Hi, LoInc: rg.LoInc, HiInc: rg.HiInc}
			continue
		}
		if out.Lo != nil {
			if rg.Lo == nil {
				out.Lo, out.LoInc = nil, false
			} else if c := tuple.Compare(*rg.Lo, *out.Lo); c < 0 || (c == 0 && rg.LoInc && !out.LoInc) {
				out.Lo, out.LoInc = rg.Lo, rg.LoInc
			}
		}
		if out.Hi != nil {
			if rg.Hi == nil {
				out.Hi, out.HiInc = nil, false
			} else if c := tuple.Compare(*rg.Hi, *out.Hi); c > 0 || (c == 0 && rg.HiInc && !out.HiInc) {
				out.Hi, out.HiInc = rg.Hi, rg.HiInc
			}
		}
	}
	return out
}

// idSet is the set of the tuples' ids; nil, which holds none, for none.
func idSet(tuples []tuple.Tuple) map[uint64]bool {
	if len(tuples) == 0 {
		return nil
	}
	out := make(map[uint64]bool, len(tuples))
	for _, tp := range tuples {
		out[tp.ID] = true
	}
	return out
}

// --- scalar aggregates -------------------------------------------------------

// aggRefreshTree folds Model-3 deltas into the aggregate state and
// rewrites its one-page store when anything changed. A Min/Max delete
// of the current extreme triggers a recomputation scan of the source (a
// charged clustered scan).
func (db *op) aggRefreshTree(vs *viewState, src exec.Operator) exec.Operator {
	changed := false
	needRecompute := false
	filt := exec.NewFilter(db.execOpts(), exec.Label{vs.def.Name}, src, singlePred(vs), false)
	fold := exec.NewAggFold(db.execOpts(), exec.Label{vs.def.Name}, filt, exec.Fold{
		Col: vs.def.AggCol,
		Val: func(v float64, insert bool) {
			if insert {
				vs.aggState.Insert(v)
			} else if vs.aggState.Delete(v) {
				needRecompute = true
			}
			changed = true
		},
	})
	phases := []exec.Operator{fold}
	// The later phases are planned lazily inside StateWrites, because
	// whether the fold tripped a MIN/MAX recompute is only known after
	// it ran; Seq's lazy opening keeps the ordering correct.
	phases = append(phases, exec.NewStateWrite(db.execOpts(), exec.Label{"rebuild-if-needed"}, func() error {
		if !needRecompute {
			return nil
		}
		return db.rebuildAggregate(vs)
	}))
	phases = append(phases, exec.NewStateWrite(db.execOpts(), exec.Label{vs.def.Name, ".aggpage"}, func() error {
		if !changed {
			return nil
		}
		return db.writeAggState(vs)
	}))
	return exec.NewSeq(exec.Label{"refresh-agg(", vs.def.Name, ")"}, phases...)
}

// rebuildAggregate recomputes the aggregate state from the (end-state)
// source — the base relation, or the parent view's materialization for
// hierarchy children — with the view derived whole and charged, a scan
// restricted to the predicate interval, then persists it.
func (db *op) rebuildAggregate(vs *viewState) error {
	all, err := db.derive(vs, derivation{charged: true})
	if err != nil {
		return err
	}
	write := exec.NewStateWrite(db.execOpts(), exec.Label{vs.def.Name, ".aggpage"}, func() error {
		*vs.aggState = *all.state
		return db.writeAggState(vs)
	})
	return db.runPlan(vs, PlanPathRefresh, exec.NewSeq(exec.Label{"rebuild-agg(", vs.def.Name, ")"}, all.root, write))
}

// writeAggState persists the aggregate state to its single page.
func (db *op) writeAggState(vs *viewState) error {
	fr, err := db.pool.Get(vs.aggFile, vs.aggPage)
	if err != nil {
		return err
	}
	writeAggPage(fr, vs.aggState)
	return db.pool.Release(fr)
}

// writeAggPage encodes the state into the frame.
func writeAggPage(fr *storage.Frame, s interface{ Encode([]byte) []byte }) {
	buf := s.Encode(fr.Data[:0])
	for i := len(buf); i < len(fr.Data); i++ {
		fr.Data[i] = 0
	}
	fr.MarkDirty()
}

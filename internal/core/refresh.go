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

// feedSource is the feed's delta rows as an operator: the whole private
// input of a "delta" or "viewdelta" consumer, and the build a group
// materializes once. For "join" it is the expansion with the per-view
// restriction lifted (private join plans restrict inside the expansion
// instead, see joinRefreshTree).
func (db *Database) feedSource(f deltaFeed, views []*viewState) exec.Operator {
	switch f.fp.Kind {
	case "viewdelta":
		pending := f.parent.deltaLog[f.from-f.parent.logStart:]
		rows := make([]exec.Row, len(pending))
		for i, e := range pending {
			rows[i] = exec.Row{T0: tuple.Tuple{Vals: e.vals}, Insert: e.insert}
		}
		return exec.NewViewDeltaScan(db.execOpts(), f.parent.def.Name, rows)
	case "join":
		return db.sharedJoinExpansion(f, views)
	}
	d := f.slot(0)
	return exec.NewDeltaSource(db.execOpts(), f.fp.Rel1, d.adds, d.dels)
}

// privateTree is one view's whole refresh plan over the feed.
func (db *Database) privateTree(vs *viewState, f deltaFeed) (exec.Operator, error) {
	if vs.def.Kind != Join {
		return db.applyTree(vs, db.feedSource(f, nil))
	}
	c, err := db.joinCtx(vs)
	if err != nil {
		return nil, err
	}
	db.deltaScans.Add(1)
	return db.joinRefreshTree(c, f.slot(0), f.slot(1)), nil
}

// applyTree is one view's apply pipeline over a stream of delta rows:
// its predicate screen, projection, and the fold into its stored copy.
func (db *Database) applyTree(vs *viewState, src exec.Operator) (exec.Operator, error) {
	switch vs.def.Kind {
	case SelectProject:
		// The screening CPU was charged when the tuples were marked, so
		// the filter is uncharged; only the view I/O lands on the
		// DeltaApply sink (the model's C2·(3+Hvi)·X term).
		filt := exec.NewFilter(db.execOpts(), vs.def.Name, src, singlePred(vs), false)
		return db.matApply(vs, db.project(vs, filt)), nil
	case Aggregate:
		return db.aggRefreshTree(vs, src), nil
	case GroupedAggregate:
		return db.groupAggRefreshTree(vs, src), nil
	case Join:
		// Only a replayed shared expansion reaches a join view as a row
		// stream: its full predicate screen is charged per replayed row
		// (the k·apply term of the share-vs-rescan estimate).
		c, err := db.joinCtx(vs)
		if err != nil {
			return nil, err
		}
		filt := exec.NewFilter(db.execOpts(), vs.def.Name+".screen", src, c.onFullPred(), true)
		return db.applyJoin(c, filt), nil
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
// Equivalence argument (what the recompute-oracle test layer checks):
// the shared build runs the same operator pipeline as a private refresh
// with the per-view restriction removed; each consumer then applies its
// full view predicate to every replayed row. A row the private plan
// would have dropped before probing is instead produced and dropped at
// the consumer's screen, and a row the private plan kept survives with
// the same polarity in the same relative position — the pipelines are
// order-preserving — so the applied delta sequence per view is
// identical and the stored view bytes match the private path.
//
// Meter attribution: the build's charges land once, inside the plan
// tree of the group's first consumer, wrapped in a SharedDelta node;
// every other consumer records a zero-cost SharedDeltaRef naming the
// charged view. Each recorded per-view meter delta therefore still
// equals its tree's TotalCost exactly.
func (db *Database) refreshGroup(views []*viewState, f deltaFeed) error {
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
		tree, err := db.applyTree(vs, exec.NewSharedDeltaScan(db.execOpts(), f.fp, rows))
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

// joinRefreshTree applies Model-2 deltas with the corrected expansion,
// built as a sequence of three pipelines, each projected and folded
// into the stored copy. Each handled R1-delta tuple charges one C1 unit
// (the model's C1·2u / C1·2l per-tuple join-handling cost).
func (db *Database) joinRefreshTree(c joinPlanCtx, d1, d2 *deltas) exec.Operator {
	vs, o := c.vs, db.execOpts()
	a1IDs := idSet(d1.adds)
	a2IDs := idSet(d2.adds)

	var phases []exec.Operator

	// A1×R2' and D1×R2': screen the R1 deltas by the slot-0 restriction
	// (charged), then probe R2 (end state) by join value through its
	// clustered hash index, skipping A2 ids to recover R2'.
	r1 := vs.def.Relations[0]
	handled := exec.NewFilter(o, r1+".r1pred", exec.NewDeltaSource(o, r1, d1.adds, d1.dels), singlePred(vs), true)
	phases = append(phases, db.applyJoin(c, exec.NewLoopJoin(o, exec.LoopJoinSpec{
		Input:   handled,
		Inner:   c.r2,
		JoinVal: c.outerVal,
		On:      c.onFull,
		SkipIDs: a2IDs,
	})))

	// R1'×A2 and R1'×D2: R1 has no index on the join column, so the
	// R2-side deltas are matched with one restricted scan of R1 (end
	// state), skipping A1 ids to recover R1'. The paper's Model 2
	// never updates R2; this path generalizes it. The flat screen is
	// the per-delta handling term, C1·(|A2|+|D2|).
	if n2 := len(d2.adds) + len(d2.dels); n2 > 0 {
		outer := exec.NewFilter(o, "r1'", db.restrictedScan(vs, 0),
			exec.Pred{P: vs.def.Pred, SkipIDs: a1IDs}, false)
		phases = append(phases, db.applyJoin(c,
			exec.NewMatchDeltas(o, outer, d2.adds, d2.dels, c.outerVal, c.col2, c.onFull, int64(n2))))
	}

	// A1×A2, A1×D2 is impossible (a tuple cannot be inserted into R2'
	// and deleted from it in the same net set), D1×A2 likewise; the
	// remaining cross terms are A1×A2 (insert) and D1×D2 (delete).
	phases = append(phases, db.applyJoin(c,
		exec.NewCrossDeltas(o, d1.adds, d2.adds, d1.dels, d2.dels, c.col1, c.col2, c.onFull)))

	return exec.NewSeq("refresh-join("+vs.def.Name+")", phases...)
}

// sharedJoinExpansion is the corrected delta expansion of §2.1 run once
// for a whole group, with the per-view restriction lifted: every
// R1-delta tuple is handled (charged C1) and probed, the R1' scan
// covers the union of the consumers' predicate intervals, and the
// joined rows carry both slots so each consumer can evaluate its full
// predicate downstream.
func (db *Database) sharedJoinExpansion(f deltaFeed, views []*viewState) exec.Operator {
	fp := f.fp
	d1, d2 := f.slot(0), f.slot(1)
	r1, r2 := db.rels[fp.Rel1], db.rels[fp.Rel2]
	a1IDs := idSet(d1.adds)
	a2IDs := idSet(d2.adds)
	outerVal := func(row exec.Row) tuple.Value { return row.T0.Vals[fp.Col1] }
	db.deltaScans.Add(1)

	var phases []exec.Operator

	// A1×R2' and D1×R2': every delta tuple charges its handling screen
	// here (the private plans charge it at their restriction filter),
	// then probes R2 skipping A2 ids.
	handled := exec.NewFilter(db.execOpts(), fp.Rel1+".handling",
		exec.NewDeltaSource(db.execOpts(), fp.Rel1, d1.adds, d1.dels), exec.Pred{}, true)
	phases = append(phases, exec.NewLoopJoin(db.execOpts(), exec.LoopJoinSpec{
		Input:   handled,
		Inner:   r2,
		JoinVal: outerVal,
		SkipIDs: a2IDs,
	}))

	// R1'×A2 and R1'×D2: one restricted scan over the union of the
	// consumers' intervals on R1's clustering column, skipping A1 ids —
	// predicate subsumption: every consumer's restriction interval is
	// contained in the union, so one scan feeds them all.
	if len(d2.adds)+len(d2.dels) > 0 {
		scan := exec.NewScan(db.execOpts(), r1, unionInterval(views, r1.KeyCol()))
		outer := exec.NewFilter(db.execOpts(), fp.Rel1+"'", scan, exec.Pred{SkipIDs: a1IDs}, false)
		phases = append(phases, exec.NewMatchDeltas(db.execOpts(), outer, d2.adds, d2.dels,
			outerVal, fp.Col2, nil, int64(len(d2.adds)+len(d2.dels))))
	}

	// A1×A2 insert and D1×D2 delete cross terms.
	phases = append(phases, exec.NewCrossDeltas(db.execOpts(), d1.adds, d2.adds, d1.dels, d2.dels, fp.Col1, fp.Col2, nil))

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

func idSet(tuples []tuple.Tuple) map[uint64]bool {
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
func (db *Database) aggRefreshTree(vs *viewState, src exec.Operator) exec.Operator {
	changed := false
	needRecompute := false
	filt := exec.NewFilter(db.execOpts(), vs.def.Name, src, singlePred(vs), false)
	fold := exec.NewAggFold(db.execOpts(), vs.def.Name, filt, exec.Fold{
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
	phases = append(phases, exec.NewStateWrite(db.execOpts(), "rebuild-if-needed", func() error {
		if !needRecompute {
			return nil
		}
		return db.rebuildAggregate(vs)
	}))
	phases = append(phases, exec.NewStateWrite(db.execOpts(), vs.def.Name+".aggpage", func() error {
		if !changed {
			return nil
		}
		return db.writeAggState(vs)
	}))
	return exec.NewSeq("refresh-agg("+vs.def.Name+")", phases...)
}

// rebuildAggregate recomputes the aggregate state from the (end-state)
// source — the base relation, or the parent view's materialization for
// hierarchy children — with the view derived whole and charged, a scan
// restricted to the predicate interval, then persists it.
func (db *Database) rebuildAggregate(vs *viewState) error {
	all, err := db.derive(vs, derivation{charged: true})
	if err != nil {
		return err
	}
	write := exec.NewStateWrite(db.execOpts(), vs.def.Name+".aggpage", func() error {
		*vs.aggState = *all.state
		return db.writeAggState(vs)
	})
	return db.runPlan(vs, PlanPathRefresh, exec.NewSeq("rebuild-agg("+vs.def.Name+")", all.root, write))
}

// writeAggState persists the aggregate state to its single page.
func (db *Database) writeAggState(vs *viewState) error {
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

package rules

import (
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// selPred returns the Model-1 style predicate 10 ≤ r0.c0 < 20.
func selPred() *pred.P {
	return pred.New(
		pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
		pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(20)},
	)
}

func TestScreenTwoStages(t *testing.T) {
	m := storage.NewMeter()
	tab := NewTable()
	tab.Register("v", "r", 0, 0, selPred())

	// Outside the interval: fails stage 1, no C1 charged.
	before := m.Snapshot()
	if hits := tab.Screen("r", tuple.New(1, tuple.I(5)), m); len(hits) != 0 {
		t.Errorf("out-of-interval tuple hit: %v", hits)
	}
	if got := m.Snapshot().Sub(before).Screens; got != 0 {
		t.Errorf("stage-1 rejection charged %d screens, want 0", got)
	}

	// Inside the interval: passes stage 1, charged stage 2, passes.
	before = m.Snapshot()
	if hits := tab.Screen("r", tuple.New(2, tuple.I(15)), m); len(hits) != 1 || hits[0] != "v" {
		t.Errorf("in-interval tuple hits = %v", hits)
	}
	if got := m.Snapshot().Sub(before).Screens; got != 1 {
		t.Errorf("stage-2 test charged %d screens, want 1", got)
	}
}

func TestScreenFalseDrop(t *testing.T) {
	// Predicate constrains two columns but the t-lock guards only
	// column 0: a tuple inside the interval but failing the second
	// clause is a false drop — stage 1 passes, stage 2 rejects.
	m := storage.NewMeter()
	tab := NewTable()
	p := selPred().And(pred.Cmp{Rel: 0, Col: 1, Op: pred.Eq, Val: tuple.S("x")})
	tab.Register("v", "r", 0, 0, p)

	before := m.Snapshot()
	hits := tab.Screen("r", tuple.New(1, tuple.I(15), tuple.S("y")), m)
	if len(hits) != 0 {
		t.Errorf("false drop passed stage 2: %v", hits)
	}
	if got := m.Snapshot().Sub(before).Screens; got != 1 {
		t.Errorf("false drop charged %d screens, want 1 (stage 2 ran)", got)
	}
}

func TestScreenUnconstrainedColumnLocksWholeIndex(t *testing.T) {
	m := storage.NewMeter()
	tab := NewTable()
	// Predicate constrains col 1; lock placed on col 0 → full range.
	p := pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Eq, Val: tuple.I(7)})
	tab.Register("v", "r", 0, 0, p)
	hits := tab.Screen("r", tuple.New(1, tuple.I(12345), tuple.I(7)), m)
	if len(hits) != 1 {
		t.Errorf("whole-index lock missed a tuple: %v", hits)
	}
	if got := m.Snapshot().Screens; got != 1 {
		t.Errorf("charged %d screens, want 1 (stage 1 always fires)", got)
	}
}

func TestScreenMultipleViews(t *testing.T) {
	m := storage.NewMeter()
	tab := NewTable()
	tab.Register("low", "r", 0, 0, pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(50)}))
	tab.Register("high", "r", 0, 0, pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(40)}))
	hits := tab.Screen("r", tuple.New(1, tuple.I(45)), m)
	if len(hits) != 2 {
		t.Errorf("overlap tuple hits = %v, want both views", hits)
	}
	hits = tab.Screen("r", tuple.New(2, tuple.I(10)), m)
	if len(hits) != 1 || hits[0] != "low" {
		t.Errorf("hits = %v, want [low]", hits)
	}
}

func TestScreenOtherRelationUnaffected(t *testing.T) {
	m, tab := storage.NewMeter(), NewTable()
	tab.Register("v", "r1", 0, 0, selPred())
	if hits := tab.Screen("r2", tuple.New(1, tuple.I(15)), m); len(hits) != 0 {
		t.Errorf("lock leaked to another relation: %v", hits)
	}
}

func TestUnregister(t *testing.T) {
	m, tab := storage.NewMeter(), NewTable()
	tab.Register("a", "r", 0, 0, selPred())
	tab.Register("b", "r", 0, 0, selPred())
	if got := tab.Views(); len(got) != 2 {
		t.Fatalf("Views = %v", got)
	}
	tab.Unregister("a")
	if got := len(tab.locks["r"]); got != 1 {
		t.Errorf("%d locks on r, want 1", got)
	}
	if hits := tab.Screen("r", tuple.New(1, tuple.I(15)), m); len(hits) != 1 || hits[0] != "b" {
		t.Errorf("hits after unregister = %v", hits)
	}
	tab.Unregister("b")
	if got, ok := tab.locks["r"]; ok {
		t.Errorf("locks on r after unregistering all: %v", got)
	}
}

func TestJoinViewScreening(t *testing.T) {
	// V: r0.a in [10,20) and r0.b = r1.b — screening an r1 tuple must
	// pass (it could join), screening an r0 tuple outside the interval
	// must fail stage 1.
	m := storage.NewMeter()
	tab := NewTable()
	p := selPred().And(pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0})
	tab.Register("v", "r1", 0, 0, p)
	tab.Register("v", "r2", 1, 0, p)

	if hits := tab.Screen("r2", tuple.New(1, tuple.I(999)), m); len(hits) != 1 {
		t.Errorf("r2 tuple should pass (join always satisfiable): %v", hits)
	}
	if hits := tab.Screen("r1", tuple.New(2, tuple.I(5), tuple.I(999)), m); len(hits) != 0 {
		t.Errorf("r1 tuple outside interval passed: %v", hits)
	}
	if hits := tab.Screen("r1", tuple.New(3, tuple.I(15), tuple.I(999)), m); len(hits) != 1 {
		t.Errorf("r1 tuple inside interval failed: %v", hits)
	}
}

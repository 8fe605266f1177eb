// Package viewmat is a single-node relational engine built to study —
// and let applications exploit — the three view materialization
// strategies analyzed in Eric Hanson's "A Performance Analysis of View
// Materialization Strategies" (SIGMOD 1987 / UCB ERL M86/98):
//
//   - query modification: views are never stored; queries are
//     rewritten onto the base relations,
//   - immediate maintenance: a materialized copy is updated by the
//     differential algorithm after every transaction,
//   - deferred maintenance (the paper's proposal): changes are
//     captured in hypothetical relations (a Bloom-filtered combined
//     differential file) and folded into the materialized copy just
//     before the view is read.
//
// The engine runs on a simulated disk that counts the operations the
// paper's cost model prices — C1 per predicate screen, C2 per page
// I/O, C3 per A/D bookkeeping touch — so measured costs are directly
// comparable to the analytic model in this module's costmodel layer.
//
// # Quick start
//
//	db := viewmat.Open(viewmat.Options{})
//	db.CreateRelationBTree("emp", viewmat.NewSchema(
//	    viewmat.Col("dept", viewmat.Int),
//	    viewmat.Col("name", viewmat.String),
//	), 0)
//	db.CreateView(viewmat.Def{
//	    Name:      "eng",
//	    Kind:      viewmat.SelectProject,
//	    Relations: []string{"emp"},
//	    Pred:      viewmat.Where(viewmat.ColEq(0, 0, viewmat.I(7))),
//	    Project:   [][]int{{0, 1}},
//	}, viewmat.Deferred)
//	tx := db.Begin()
//	tx.Insert("emp", viewmat.I(7), viewmat.S("ada"))
//	tx.Commit()
//	rows, _ := db.QueryView("eng", nil)
//
// Every operation — a read with the refresh it led, a commit, a refresh,
// a strategy flip — runs on a buffer pool of its own, cold when it
// begins, so it is charged for the distinct pages it touches whatever
// runs beside it: Database.Meter, Breakdown and the captured plans are
// exact under concurrent load. Database.ViewStats reports what a view
// owes: whether it is stale, its refreshes, its delta log.
//
// See examples/ for runnable programs and DESIGN.md for the map from
// the paper's sections to packages.
package viewmat

import (
	"io"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Core engine types.
type (
	// Database is the engine: relations, views, transactions, cost
	// accounting.
	Database = core.Database
	// Options configures a Database.
	Options = core.Options
	// Tx is a buffered update transaction.
	Tx = core.Tx
	// Def is a view definition.
	Def = core.Def
	// ResultRow is one view query result row.
	ResultRow = core.ResultRow
	// Strategy selects how a view is maintained.
	Strategy = core.Strategy
	// ViewKind classifies views (select-project, join, aggregate).
	ViewKind = core.Kind
	// QueryPlan selects a query-modification access path.
	QueryPlan = core.QueryPlan
	// Phase labels cost-attribution buckets in Database.Breakdown.
	Phase = core.Phase
	// Stats is a snapshot of metered operation counts.
	Stats = storage.Stats
)

// Schema and value types.
type (
	// Schema describes a relation's columns.
	Schema = tuple.Schema
	// Column is one schema column.
	Column = tuple.Column
	// Value is a typed scalar.
	Value = tuple.Value
	// ColType enumerates column types.
	ColType = tuple.Type
)

// Predicate types.
type (
	// Predicate is a conjunction of comparison and join atoms.
	Predicate = pred.P
	// Range is a value interval (used for view queries).
	Range = pred.Range
	// Cmp compares a relation column to a constant.
	Cmp = pred.Cmp
	// JoinEq equates columns of two relations.
	JoinEq = pred.JoinEq
	// Op is a comparison operator.
	Op = pred.Op
)

// AggKind selects an aggregate function for Model-3 views.
type AggKind = agg.Kind

// Params are the cost model's workload parameters.
type Params = costmodel.Params

// WorkloadHints feeds anticipated operation mix into ProfileView and
// Explain.
type WorkloadHints = core.WorkloadHints

// Explanation is Explain's report: profiled parameters and the cost of
// every strategy the engine can run for the view, priced from the table
// the adaptive advisor reads.
type Explanation = core.Explanation

// Adaptive advisor surface (see Database.EnableAdaptive, AdaptTick,
// SetStrategy, AdvisorStats).
type (
	// AdvisorOptions tunes the online adaptive advisor.
	AdvisorOptions = core.AdvisorOptions
	// FlipReport describes one strategy flip AdaptTick applied.
	FlipReport = core.FlipReport
	// AdvisorViewStat is one view's advisor state.
	AdvisorViewStat = core.AdvisorViewStat
	// Estimator folds live observations into measured workload
	// parameters for the cost model.
	Estimator = costmodel.Estimator
)

// Adaptive advisor errors.
var (
	// ErrAdaptiveDisabled is returned by AdaptTick before EnableAdaptive.
	ErrAdaptiveDisabled = core.ErrAdaptiveDisabled
	// ErrAdaptiveEnabled is returned by EnableAdaptive when an advisor
	// is already on, e.g. one Load restored.
	ErrAdaptiveEnabled = core.ErrAdaptiveEnabled
	// ErrFlipUnsupported marks strategy flips the engine refuses.
	ErrFlipUnsupported = core.ErrFlipUnsupported
)

// Strategies. The first three are the paper's contenders; Snapshot
// and RecomputeOnDemand implement the two further mechanisms its
// introduction surveys ([Adib80, Lind86] and [Bune79]).
const (
	// QueryModification rewrites view queries onto base relations.
	QueryModification = core.QueryModification
	// Immediate refreshes materialized views after every transaction.
	Immediate = core.Immediate
	// Deferred refreshes materialized views just before they are read.
	Deferred = core.Deferred
	// Snapshot keeps a periodically recomputed copy (reads may be
	// stale within the configured interval).
	Snapshot = core.Snapshot
	// RecomputeOnDemand fully recomputes before a read whenever a
	// screened update may have changed the view.
	RecomputeOnDemand = core.RecomputeOnDemand
)

// View kinds.
const (
	// SelectProject is Model 1.
	SelectProject = core.SelectProject
	// Join is Model 2.
	Join = core.Join
	// Aggregate is Model 3.
	Aggregate = core.Aggregate
	// GroupedAggregate is Model 3 with a GROUP BY column (extension);
	// query with Database.QueryGroups.
	GroupedAggregate = core.GroupedAggregate
)

// GroupRow is one grouped-aggregate query result.
type GroupRow = core.GroupRow

// Query plans.
const (
	// PlanAuto picks an access path automatically.
	PlanAuto = core.PlanAuto
	// PlanClustered scans the clustering index.
	PlanClustered = core.PlanClustered
	// PlanUnclustered fetches through a secondary index.
	PlanUnclustered = core.PlanUnclustered
	// PlanSequential scans the whole relation.
	PlanSequential = core.PlanSequential
	// PlanLoopJoin runs a nested-loop join.
	PlanLoopJoin = core.PlanLoopJoin
)

// Column types.
const (
	// Int is a 64-bit integer column.
	Int = tuple.Int
	// Float is a 64-bit float column.
	Float = tuple.Float
	// String is a byte-string column.
	String = tuple.String
)

// Comparison operators.
const (
	// Eq is =.
	Eq = pred.Eq
	// Ne is !=.
	Ne = pred.Ne
	// Lt is <.
	Lt = pred.Lt
	// Le is <=.
	Le = pred.Le
	// Gt is >.
	Gt = pred.Gt
	// Ge is >=.
	Ge = pred.Ge
)

// Aggregate kinds.
const (
	// Count counts tuples.
	Count = agg.Count
	// Sum totals a column.
	Sum = agg.Sum
	// Avg averages a column.
	Avg = agg.Avg
	// Min tracks a column minimum.
	Min = agg.Min
	// Max tracks a column maximum.
	Max = agg.Max
	// Var tracks the population variance of a column.
	Var = agg.Var
	// StdDev tracks the population standard deviation of a column.
	StdDev = agg.StdDev
)

// Open creates an empty database. The zero Options selects the paper's
// page size (4000 bytes) and a ~1 MB buffer pool.
func Open(opts Options) *Database { return core.NewDatabase(opts) }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return tuple.NewSchema(cols...) }

// Col builds a schema column.
func Col(name string, t ColType) Column { return tuple.Col(name, t) }

// I builds an integer value.
func I(v int64) Value { return tuple.I(v) }

// F builds a float value.
func F(v float64) Value { return tuple.F(v) }

// S builds a string value.
func S(v string) Value { return tuple.S(v) }

// Where builds a predicate from atoms (conjunction; empty = true).
func Where(atoms ...pred.Atom) *Predicate { return pred.New(atoms...) }

// ColEq builds the atom "relation slot rel, column col = v".
func ColEq(rel, col int, v Value) Cmp { return Cmp{Rel: rel, Col: col, Op: Eq, Val: v} }

// ColRange builds the pair of atoms "lo ≤ column < hi".
func ColRange(rel, col int, lo, hi Value) []pred.Atom {
	return []pred.Atom{
		Cmp{Rel: rel, Col: col, Op: Ge, Val: lo},
		Cmp{Rel: rel, Col: col, Op: Lt, Val: hi},
	}
}

// KeyRange builds a closed query range [lo, hi] for QueryView.
func KeyRange(lo, hi Value) *Range { return pred.NewRange(lo, hi, true, true) }

// KeyPoint builds the query range containing exactly v.
func KeyPoint(v Value) *Range { return pred.PointRange(v) }

// DefaultParams returns the paper's §3.1 default cost-model
// parameters.
func DefaultParams() Params { return costmodel.Default() }

// Load reconstructs a database previously serialized with
// Database.Save. The restored engine answers every query identically
// and continues from the saved tuple-id clock; its cost meter starts
// at zero.
func Load(r io.Reader) (*Database, error) { return core.Load(r) }

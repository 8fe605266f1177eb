package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// Fixed shape of the benchmark. None of these depend on the host: a
// number measured today must mean the same thing on the next PR.
const (
	// clients is the number of closed-loop connections (one goroutine
	// each). Closed loop because the protocol is strict
	// request/response per connection and the server sheds CodeBusy
	// instead of queueing; two because the sandbox has two vCPUs.
	clients = 2

	// Engine configuration handed to viewmatd (and mirrored by the
	// in-process engines of the traced run). Flush policy: WAL fsync
	// before every commit ack, full snapshot checkpoint every
	// checkpointEvery commits, real files on the sandbox disk.
	pageSize        = 4000
	poolFrames      = 256
	checkpointEvery = 8

	// Ascending loads leave B-tree leaves half full, ~54 rows a page.
	// smallN rows of R are ~370 pages, of which a wide-mat query touches
	// the ~20 view pages its range covers: its working set fits the
	// 256-frame pool many times over. largeN rows are ~1850 pages, seven
	// times the pool, and a scan-qm query reads the ~1000 of them its
	// zone maps cannot rule out: four times the pool.
	smallN = 20000
	largeN = 100000

	// aMul scatters column a over [0,N): a = k·aMul mod N is a
	// permutation (aMul is coprime to both N) with no run structure a
	// zone map could exploit beyond chance.
	aMul = 40503

	loadBatch = 2000 // rows per load transaction
	txRows    = 4    // l: rows updated per transaction

	// blocks partitions R's key space; block b belongs to client
	// b mod clients, and the views cover blocks [0, blocks/2).
	blocks = 8

	// setupDisk is the disk share of set-up, which on every workload is
	// bulk-load commits: each one a WAL sync, every eighth a snapshot.
	setupDisk = 0.3

	relR  = "R"
	relR2 = "R2"
)

// Everything else scales with N, as the paper's parameters do, so the
// tests can run the same workloads at a tiny N.
func r2Rows(n int64) int64    { return n / 10 }  // |R2| = fR2·N: 2000 at smallN
func wideRows(n int64) int64  { return n / 20 }  // wide-mat range, fv·f·N: 1000 rows
func scanBelow(n int64) int64 { return n / 100 } // scan-qm predicate a < 1000 at largeN: 1000 rows
func rangeRows(n int64) int64 { return n / 100 } // mixed-def Model-1 range: 200 rows
func joinSpan(n int64) int64  { return n / 10 }  // mixed-def Model-2 range: 2000 keys, ~200 rows

type opClass int

const (
	classRange  opClass = iota // range query on the Model-1 view
	classScan                  // full query of the QM view
	classCommit                // l-row update transaction
	classJoin                  // range query on the Model-2 view
	classAgg                   // Model-3 aggregate read
	numClasses
)

var classNames = [numClasses]string{"range", "scan", "commit", "join", "agg"}

func (c opClass) isQuery() bool { return c != classCommit }

// op is one generated operation. Queries use [lo,hi) on the view key
// (ignored by classScan and classAgg); commits add deltas[i] to p of
// keys[i].
type op struct {
	class  opClass
	lo, hi int64
	keys   [txRows]int64
	deltas [txRows]int64
}

// viewSpec is one view a workload creates after loading.
type viewSpec struct {
	def      core.Def
	strategy core.Strategy
}

// workload is one named traffic mix over one data shape.
type workload struct {
	name string
	why  string
	n    int64 // rows in R
	r2   bool  // also load R2
	// strategy of the materialized views (unused by scan-qm).
	strategy core.Strategy
	// headline is the op class op_p50_ms reports.
	headline opClass
	// warmOps per client run before measuring. opsPerSec is this
	// sandbox's two-client throughput at reference speed when the
	// benchmark was defined; it is a constant that turns -seconds into
	// the stream's fixed op count and must not follow later speed-ups.
	warmOps   int
	opsPerSec float64
	// sessions is how many times the untraced run sets up, and how many
	// server processes its stream is split across. Set-up is seconds of
	// fsync-heavy work, so its median is reported; and two processes
	// never run quite alike (heap layout, which vCPU wakes whom), so the
	// op timings pool several instead of betting on one: five on
	// wide-mat, whose sessions differ most (7 % standard deviation at
	// one probe speed) and set up fastest. The large table's set-up
	// costs too much of the run's time for a third.
	sessions int
	// disk is the share of an op's wall time spent waiting for durable
	// writes (WAL and snapshot writes and syncs over the client's call,
	// from the traced run when the benchmark was defined); it weights
	// the probe's durable-write kernel in the workload's wall-time
	// normalisation and, like the probe, must never change.
	disk float64
	// gen produces client c's i-th op.
	gen func(w *workload, rng *rand.Rand, c, i int) op
}

var workloads = []*workload{
	{
		name: "wide-mat", n: smallN, strategy: core.Immediate, headline: classRange,
		why:     "1000-row range reads from an Immediate Model-1 view that fits the pool: client/proto/frame/server result encoding dominate, exec and wal idle",
		warmOps: 50, opsPerSec: 500, sessions: 5,
		gen: func(w *workload, rng *rand.Rand, c, i int) op {
			lo := rng.Int63n(w.n/2 - wideRows(w.n) + 1)
			return op{class: classRange, lo: lo, hi: lo + wideRows(w.n)}
		},
	},
	{
		name: "scan-qm", n: largeN, headline: classScan,
		why:     "full scans of a QueryModification view, no index, ~1000 of 1850 pages read per query against a 256-frame pool: storage/colpage/btree/exec/vec dominate, WAL idle",
		warmOps: 10, opsPerSec: 60, sessions: 2,
		gen: func(w *workload, rng *rand.Rand, c, i int) op {
			return op{class: classScan}
		},
	},
	{
		name: "commit-imm", n: smallN, r2: true, strategy: core.Immediate, headline: classCommit,
		why:     "4-row update transactions against Immediate Model-1/2/3 views: WAL sync, checkpoint snapshots, screening and immediate maintenance; no reads",
		warmOps: 40, opsPerSec: 175, sessions: 3, disk: 0.3,
		gen: func(w *workload, rng *rand.Rand, c, i int) op {
			return w.genCommit(rng, c)
		},
	},
	{
		name: "mixed-def", n: smallN, r2: true, strategy: core.Deferred, headline: classRange,
		why:     "the paper's scenario, P=0.5: each client alternates a 4-row update and a query over Deferred Model-1/2/3 views, so reads pay AD scan and refresh and wait behind writers",
		warmOps: 40, opsPerSec: 290, sessions: 3, disk: 0.3,
		gen: func(w *workload, rng *rand.Rand, c, i int) op {
			if i%2 == 0 {
				return w.genCommit(rng, c)
			}
			// Queries stay inside one of the client's own in-view
			// blocks: only this client updates those keys, and in a
			// closed loop its updates are all acknowledged, so the
			// answer has a closed form.
			bl := w.n / blocks
			base := int64(c+clients*rng.Intn(blocks/2/clients)) * bl
			switch (i / 2) % 3 {
			case 0:
				lo := base + rng.Int63n(bl-rangeRows(w.n)+1)
				return op{class: classRange, lo: lo, hi: lo + rangeRows(w.n)}
			case 1:
				lo := base + rng.Int63n(bl-joinSpan(w.n)+1)
				return op{class: classJoin, lo: lo, hi: lo + joinSpan(w.n)}
			default:
				return op{class: classAgg}
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genCommit draws one transaction for client c: a pair of distinct keys
// from one of its in-view blocks and a pair from one of its out-of-view
// blocks, each pair moved by +d and −d. Every transaction therefore
// leaves SUM(p) over the view region unchanged, which gives the
// Model-3 aggregate a closed-form answer even while the other client is
// mid-commit — and makes a torn transaction visible as a wrong sum.
func (w *workload) genCommit(rng *rand.Rand, c int) op {
	bl := w.n / blocks
	o := op{class: classCommit}
	for pair := 0; pair < txRows/2; pair++ {
		half := int64(pair) * blocks / 2 // 0: in-view blocks, blocks/2: out-of-view
		base := (half + int64(c+clients*rng.Intn(blocks/2/clients))) * bl
		k1 := rng.Int63n(bl)
		k2 := (k1 + 1 + rng.Int63n(bl-1)) % bl
		d := 1 + rng.Int63n(99)
		o.keys[2*pair], o.deltas[2*pair] = base+k1, d
		o.keys[2*pair+1], o.deltas[2*pair+1] = base+k2, -d
	}
	return o
}

// opRand seeds client c's op stream.
func opRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 1))
}

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		rng := opRand(seed, c)
		for i := 0; i < n; i++ {
			fmt.Fprintf(h, "%v;", w.gen(w, rng, c, i))
		}
	}
	return h.Sum64()
}

// --- schema, initial data, views -------------------------------------------

func schemaR() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
}

func schemaR2() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("jk", tuple.Int), tuple.Col("info", tuple.Int))
}

func colA(k, n int64) int64 { return k * aMul % n }
func initP(k int64) int64   { return (k*7919 + 17) % 1000 }
func r2Info(jk int64) int64 { return jk * 31 % 977 }

const (
	viewV1 = "v1" // Model 1: σ(k<N/2) π(k,p)
	viewV2 = "v2" // Model 2: σ(k<N/2) R ⋈(a=jk) R2, π(k,p,info)
	viewV3 = "v3" // Model 3: SUM(p) over σ(k<N/2)
	viewVQ = "vq" // scan-qm: σ(a<N/100) π(a,p), query modification
)

func (w *workload) views() []viewSpec {
	inView := pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(w.n / 2)}
	if w.headline == classScan {
		return []viewSpec{{
			def: core.Def{
				Name: viewVQ, Kind: core.SelectProject, Relations: []string{relR},
				Pred:    pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.I(scanBelow(w.n))}),
				Project: [][]int{{1, 2}}, ViewKeyCol: 0,
			},
			strategy: core.QueryModification,
		}}
	}
	vs := []viewSpec{{
		def: core.Def{
			Name: viewV1, Kind: core.SelectProject, Relations: []string{relR},
			Pred: pred.New(inView), Project: [][]int{{0, 2}}, ViewKeyCol: 0,
		},
		strategy: w.strategy,
	}}
	if w.r2 {
		vs = append(vs, viewSpec{
			def: core.Def{
				Name: viewV2, Kind: core.Join, Relations: []string{relR, relR2},
				Pred:    pred.New(inView, pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0}),
				Project: [][]int{{0, 2}, {1}}, ViewKeyCol: 0,
			},
			strategy: w.strategy,
		}, viewSpec{
			def: core.Def{
				Name: viewV3, Kind: core.Aggregate, Relations: []string{relR},
				Pred: pred.New(inView), AggKind: agg.Sum, AggCol: 2,
			},
			strategy: w.strategy,
		})
	}
	return vs
}

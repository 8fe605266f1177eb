package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// historyDB builds a small durable engine: relation r, a deferred
// select-project view, two committed transactions. extra adds a
// deferred aggregate and the catalog features the trio below does not
// have, so that building it exercises other encodings.
func historyDB(t *testing.T, extra bool) (db *core.Database, walDev *storage.FaultDisk) {
	t.Helper()
	db = core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 16})
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Float), tuple.Col("s", tuple.String))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.CreateRelationBTree("r", schema, 0)
	must(err)
	walDev = storage.NewFaultDisk()
	must(db.EnableDurability(walDev, storage.NewFaultDisk(), core.DurabilityOptions{}))
	sp := core.Def{Name: "v", Kind: core.SelectProject, Relations: []string{"r"}, Project: [][]int{{0, 2}},
		Pred: pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)})}
	must(db.CreateView(sp, core.Deferred))
	if extra {
		must(db.CreateView(core.Def{Name: "vsum", Kind: core.Aggregate, Relations: []string{"r"}, Pred: pred.True(),
			AggKind: agg.Sum, AggCol: 1}, core.Deferred))
		must(db.EnableAdaptive(core.AdvisorOptions{}))
	}
	tx := db.Begin()
	id, err := tx.Insert("r", tuple.I(1), tuple.F(0.5), tuple.S("one"))
	must(err)
	_, err = tx.Insert("r", tuple.I(2), tuple.F(2), tuple.S("two"))
	must(err)
	must(tx.Commit())
	tx = db.Begin()
	_, err = tx.Update("r", tuple.I(1), id, tuple.I(1), tuple.F(1.5), tuple.S("uno"))
	must(err)
	must(tx.Delete("r", tuple.I(2), id+1))
	must(tx.Commit())
	if extra {
		_, _, err = db.QueryAggregate("vsum") // logs a refresh record
		must(err)
	}
	return db, walDev
}

// historyTrio encodes one value of each at-rest and wire kind whose
// bytes used to depend on the process's encoding history: a Health
// answer, the WAL's commit records, and a Save (catalog header first).
func historyTrio(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	out.Write(encodeResponse(t, &Response{Code: CodeOK, Body: BodyHealth, Health: &core.Health{
		Relations: 2, Views: 3, Queries: 40, Commits: 41, Meter: storage.Stats{Reads: 7, Screens: 9},
		PoolResident: 5, PoolCapacity: 16, Durable: true, RefreshLeaders: 1}}))
	db, walDev := historyDB(t, false)
	size, err := walDev.Size()
	if err != nil {
		t.Fatal(err)
	}
	log := make([]byte, size)
	if _, err := walDev.ReadAt(log, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	out.Write(log)
	if err := db.Save(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// historyOthers encodes values of every other kind: the advisor and
// flip answers, a create-view request, a refresh record, and the header
// of a catalog with an aggregate view, a tracker and the advisor in it.
func historyOthers(t *testing.T) {
	t.Helper()
	view := joinDef()
	encodeRequest(t, &Request{Op: OpCreateView, View: &view, Strategy: int(core.Deferred)})
	encodeResponse(t, &Response{Code: CodeOK, Body: BodyAdvisor, Advisor: []core.AdvisorViewStat{{
		View: "v", Params: costmodel.Default(), Costs: map[string]float64{"deferred": 1, "immediate": 2}}}})
	encodeResponse(t, &Response{Code: CodeOK, Body: BodyFlips, Flips: []core.FlipReport{{View: "v", To: "deferred"}}})
	db, _ := historyDB(t, true)
	if err := db.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryChildTrio and TestHistoryChildOthersFirst are the two
// processes TestEncodingIsHistoryIndependent compares; run in the
// ordinary suite they check the same within one process.
func TestHistoryChildTrio(t *testing.T) {
	first := historyTrio(t)
	t.Logf("TRIO:%s", hex.EncodeToString(first))
	historyOthers(t)
	if !bytes.Equal(first, historyTrio(t)) {
		t.Fatal("the trio's bytes changed after other values were encoded")
	}
}

func TestHistoryChildOthersFirst(t *testing.T) {
	historyOthers(t)
	t.Logf("TRIO:%s", hex.EncodeToString(historyTrio(t)))
}

// TestEncodingIsHistoryIndependent: the bytes of a Health answer, a
// commit record and a catalog header are a function of their content —
// not of what the process encoded before them. Two fresh processes
// encode the same trio, one of them after encoding every other kind of
// value first. Under encoding/gob, which numbers types per process in
// order of first use, the two disagreed. Both must also agree with the
// trio this process encodes.
func TestEncodingIsHistoryIndependent(t *testing.T) {
	trio := regexp.MustCompile(`TRIO:([0-9a-f]+)`)
	child := func(name string) string {
		out, err := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.v").CombinedOutput()
		m := trio.FindSubmatch(out)
		if err != nil || m == nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		return string(m[1])
	}
	plain, after := child("TestHistoryChildTrio"), child("TestHistoryChildOthersFirst")
	if plain != after {
		t.Fatalf("the same values encode differently after other values were encoded first:\n%s\n%s", plain, after)
	}
	// And what they encoded is the trio, byte for byte as this process
	// encodes it after whatever it ran before.
	if want := hex.EncodeToString(historyTrio(t)); plain != want {
		t.Fatalf("the children encoded a trio of %d bytes, this process one of %d: the children did not encode what they should", len(plain)/2, len(want)/2)
	}
}

package relation

import (
	"fmt"
	"sort"

	"viewmat/internal/btree"
	"viewmat/internal/hashidx"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Meta is a relation's persistent metadata: the access-method state
// needed to reopen it over an existing disk image. Schemas travel
// separately (they contain typed values the caller serializes).
type Meta struct {
	Kind        Kind
	KeyCol      int
	BTree       btree.Meta         // when Kind == ClusteredBTree
	Hash        hashidx.Meta       // when Kind == ClusteredHash
	Secondaries map[int]btree.Meta // column → secondary-index metadata
}

// Meta returns the relation's persistent metadata.
func (r *Relation) Meta() Meta {
	m := Meta{Kind: r.kind, KeyCol: r.keyCol, Secondaries: map[int]btree.Meta{}}
	if r.kind == ClusteredBTree {
		m.BTree = r.bt.Meta()
	} else {
		m.Hash = r.hx.Meta()
	}
	for _, sec := range r.secondaries {
		m.Secondaries[sec.col] = sec.bt.Meta()
	}
	return m
}

// Open reattaches a relation to its files on a restored disk.
func Open(disk *storage.Disk, name string, schema *tuple.Schema, m Meta) (*Relation, error) {
	if m.KeyCol < 0 || m.KeyCol >= len(schema.Cols) {
		return nil, fmt.Errorf("relation %s: metadata key column %d out of range", name, m.KeyCol)
	}
	r := &Relation{
		name: name, schema: schema, keyCol: m.KeyCol, kind: m.Kind,
		disk: disk,
	}
	var err error
	switch m.Kind {
	case ClusteredBTree:
		r.bt, err = btree.Open(disk.Open(name+".btree"), m.KeyCol, m.BTree)
		r.full = r.bt.ScanAll
	case ClusteredHash:
		r.hx, err = hashidx.Open(disk.Open(name+".hash"), m.KeyCol, m.Hash)
		r.full = r.hx.ScanAll
	default:
		return nil, fmt.Errorf("relation %s: unknown kind %d", name, m.Kind)
	}
	if err != nil {
		return nil, err
	}
	cols := make([]int, 0, len(m.Secondaries))
	for col := range m.Secondaries {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		bt, err := btree.Open(disk.Open(fmt.Sprintf("%s.sec%d", name, col)), 0, m.Secondaries[col])
		if err != nil {
			return nil, err
		}
		r.secondaries = append(r.secondaries, &Secondary{col: col, bt: bt})
	}
	return r, nil
}

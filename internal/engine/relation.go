// Package engine is an in-memory multiset (bag) query engine for the
// canonical queries of package ir. It exists so the rewriter's output can
// be executed and checked for multiset equivalence against the original
// query — the paper's correctness criterion (Definition 2.2) — and so the
// benchmark harness can measure the speedups that motivate the paper.
//
// The engine evaluates single-block queries with conjunctive WHERE
// clauses, grouping, the aggregates MIN/MAX/SUM/COUNT/AVG (including
// aggregates over arithmetic expressions, which rewritten queries use),
// HAVING, and DISTINCT. Planning is simple but not naive: per-table
// filters are pushed down and equality joins run as hash joins.
//
// Simplification (documented in DESIGN.md): there are no NULLs, and an
// aggregation query without GROUP BY over an empty input yields zero
// rows rather than one all-NULL row. Both sides of an equivalence check
// run under the same semantics.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aggview/internal/value"
)

// Relation is a named-schema multiset of tuples.
type Relation struct {
	Attrs  []string
	Tuples [][]value.Value
}

// NewRelation builds an empty relation with the given attribute names.
func NewRelation(attrs ...string) *Relation {
	return &Relation{Attrs: attrs}
}

// Add appends a tuple; it panics when the arity is wrong (programming
// error in test or generator code).
func (r *Relation) Add(vals ...value.Value) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("engine: tuple arity %d, relation %v has %d attributes", len(vals), r.Attrs, len(r.Attrs)))
	}
	r.Tuples = append(r.Tuples, vals)
}

// Len returns the number of tuples (with multiplicity).
func (r *Relation) Len() int { return len(r.Tuples) }

// tupleKey returns a canonical string for a tuple, used for sorting and
// multiset comparison.
func tupleKey(t []value.Value) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x00")
}

// MultisetEqual reports whether two relations contain the same multiset
// of tuples (attribute names are ignored; only positions and values
// matter, matching the paper's multiset-equivalence of query results).
func MultisetEqual(a, b *Relation) bool {
	if len(a.Tuples) != len(b.Tuples) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	ka := make([]string, len(a.Tuples))
	kb := make([]string, len(b.Tuples))
	for i, t := range a.Tuples {
		ka[i] = tupleKey(t)
	}
	for i, t := range b.Tuples {
		kb[i] = tupleKey(t)
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// String renders the relation as a small table for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Attrs, " | "))
	b.WriteByte('\n')
	for i, t := range r.Tuples {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d tuples total)\n", len(r.Tuples))
			break
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// Sorted returns a copy of the relation with tuples in canonical order,
// for deterministic golden tests.
func (r *Relation) Sorted() *Relation {
	out := &Relation{Attrs: append([]string{}, r.Attrs...), Tuples: append([][]value.Value{}, r.Tuples...)}
	sort.Slice(out.Tuples, func(i, j int) bool {
		return tupleKey(out.Tuples[i]) < tupleKey(out.Tuples[j])
	})
	return out
}

// DB is a collection of named relations (base tables and materialized
// views), looked up case-insensitively. It implements Storage (see
// storage.go).
//
// Installed relations are immutable: every mutation (Put, Append,
// Refresh, Apply) installs a fresh version and never edits an installed
// relation or its tuple slice in place. Each version carries one
// columnar image, built lazily by its first scan and shared by DB.Scan
// and every Snapshot that pinned that version. Embedders that hold a
// Relation returned by Get must treat it as read-only and re-Put a
// changed copy.
//
// The map of installed versions is guarded by db.mu, so mutations may
// run concurrently with queries. Readers that need a stable
// multi-relation view across an entire query take a Snapshot rather
// than holding the lock.
type DB struct {
	mu   sync.Mutex
	rels map[string]*version

	// onInvalidate, when set, observes every loud install (see
	// SetOnInvalidate in storage.go). Guarded by mu; invoked outside it.
	onInvalidate func(name string)
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{rels: map[string]*version{}} }

func lowerKey(name string) string { return strings.ToLower(name) }

// Put stores a relation under a name, replacing any previous version;
// r must not be edited afterwards. The invalidation hook fires: a
// wholesale replacement can make any dependent plan or materialization
// stale.
func (db *DB) Put(name string, r *Relation) {
	key := lowerKey(name)
	db.mu.Lock()
	db.rels[key] = &version{rel: r}
	fn := db.onInvalidate
	db.mu.Unlock()
	if fn != nil {
		fn(key)
	}
}

// Append adds tuples to an existing relation by installing a fresh
// Tuples slice (copy-on-write, so pinned snapshots are unaffected) and
// fires the invalidation hook. It reports whether the relation exists.
func (db *DB) Append(name string, rows ...[]value.Value) bool {
	key := lowerKey(name)
	db.mu.Lock()
	v, ok := db.rels[key]
	if !ok {
		db.mu.Unlock()
		return false
	}
	nt := make([][]value.Value, 0, len(v.rel.Tuples)+len(rows))
	nt = append(nt, v.rel.Tuples...)
	nt = append(nt, rows...)
	db.rels[key] = &version{rel: &Relation{Attrs: v.rel.Attrs, Tuples: nt}}
	fn := db.onInvalidate
	db.mu.Unlock()
	if fn != nil {
		fn(key)
	}
	return true
}

// Refresh silently replaces a relation: a new version, but no
// invalidation hook. It is the install path for maintained
// materializations that absorbed a delta — the content changed but
// every prepared plan over the view is still valid, so evicting warm
// plans would be pure waste (plans re-read storage on every execution).
func (db *DB) Refresh(name string, r *Relation) {
	db.mu.Lock()
	db.rels[lowerKey(name)] = &version{rel: r}
	db.mu.Unlock()
}

// Commit is one relation install inside an atomic Apply batch. Silent
// commits (maintained views that absorbed a delta) skip the
// invalidation hook; loud ones (base tables) fire it.
type Commit struct {
	Name   string
	Rel    *Relation
	Silent bool
}

// Apply installs a batch of relation replacements atomically with
// respect to Snapshot: a snapshot taken by a concurrent reader sees
// either none or all of the batch, never a half-applied mix.
// Invalidation hooks for loud commits fire after the lock is released,
// in batch order.
func (db *DB) Apply(batch []Commit) {
	db.mu.Lock()
	var loud []string
	for _, c := range batch {
		key := lowerKey(c.Name)
		db.rels[key] = &version{rel: c.Rel}
		if !c.Silent {
			loud = append(loud, key)
		}
	}
	fn := db.onInvalidate
	db.mu.Unlock()
	if fn != nil {
		for _, key := range loud {
			fn(key)
		}
	}
}

// Get looks up the installed version of a relation by name. The
// returned relation is shared and must not be mutated.
func (db *DB) Get(name string) (*Relation, bool) {
	db.mu.Lock()
	v, ok := db.rels[lowerKey(name)]
	db.mu.Unlock()
	if !ok {
		return nil, false
	}
	return v.rel, true
}

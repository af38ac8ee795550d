package engine

import (
	"maps"
	"sync"
	"sync/atomic"

	"aggview/internal/faultinject"
)

// ColTable is the columnar image of one stored relation: one typed
// vector per attribute, in schema order. Images are immutable; the
// engine shares their vectors into scan batches without copying.
type ColTable struct {
	n     int
	cols  []*Vec
	bytes int64
}

// NumRows returns the number of rows in the image.
func (c *ColTable) NumRows() int { return c.n }

// Bytes returns the estimated payload footprint, charged against
// budget.Limits.MaxMemBytes once per operation that scans the table.
func (c *ColTable) Bytes() int64 { return c.bytes }

// buildColTable converts a row-major relation into its columnar image.
func buildColTable(r *Relation) *ColTable {
	ct := &ColTable{n: len(r.Tuples), cols: make([]*Vec, len(r.Attrs))}
	for pos := range r.Attrs {
		v := colVecOf(r.Tuples, pos)
		ct.cols[pos] = v
		ct.bytes += v.bytes()
	}
	return ct
}

// version is one installed relation: its immutable rows plus their
// columnar image, built at most once, by the first scan, outside any
// DB lock. Every install creates a new version, so an image can never
// go stale and needs no freshness check.
type version struct {
	rel  *Relation
	once sync.Once
	ct   *ColTable
}

func (v *version) image() *ColTable {
	v.once.Do(func() { v.ct = buildColTable(v.rel) })
	return v.ct
}

// Storage resolves FROM sources to columnar tables; it is the engine's
// data-access seam. The in-memory *DB and its Snapshots are the first
// implementations; FaultStorage, which fails scans with typed
// I/O-style errors, is the second. Implementations must be safe for
// concurrent Scan calls — the evaluator consults storage from
// concurrent Exec calls.
//
// Scan returns (nil, false, nil) for an unknown name, in which case the
// evaluator falls back to its view source. A non-nil error models an
// I/O failure: the evaluator aborts the operation with it and never
// caches a result derived from it.
type Storage interface {
	Scan(name string) (*ColTable, bool, error)
}

// Scan implements Storage over the installed version of each relation,
// returning that version's shared columnar image.
func (db *DB) Scan(name string) (*ColTable, bool, error) {
	db.mu.Lock()
	v, ok := db.rels[lowerKey(name)]
	db.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	return v.image(), true, nil
}

// Snapshot is an immutable, point-in-time view of every relation in a
// DB, pinned under one critical section so it is atomic with respect to
// Apply batches. It implements Storage: a query executed against a
// snapshot reads one consistent version of the database no matter how
// many mutations or maintained-view refreshes commit concurrently —
// the MVCC read side of incremental view maintenance (DESIGN.md
// section 14).
//
// Pinning copies version pointers, not rows, and every snapshot of one
// version shares that version's columnar image with DB.Scan.
type Snapshot struct {
	rels map[string]*version
}

// Snapshot pins the current version of every relation.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Snapshot{rels: maps.Clone(db.rels)}
}

// With returns a snapshot that reads staged relations (keyed by
// lowercased name) in place of the pinned ones, a later map winning
// over an earlier one. Each replacement is a fresh version with its own
// lazily built image; s is unchanged.
func (s *Snapshot) With(staged ...map[string]*Relation) *Snapshot {
	rels := maps.Clone(s.rels)
	for _, over := range staged {
		for key, r := range over {
			rels[key] = &version{rel: r}
		}
	}
	return &Snapshot{rels: rels}
}

// Scan implements Storage against the pinned versions.
func (s *Snapshot) Scan(name string) (*ColTable, bool, error) {
	v, ok := s.rels[lowerKey(name)]
	if !ok {
		return nil, false, nil
	}
	return v.image(), true, nil
}

// Relation returns the pinned rows of a relation as a fresh Relation
// header (the tuple data is shared and must not be mutated).
func (s *Snapshot) Relation(name string) (*Relation, bool) {
	v, ok := s.rels[lowerKey(name)]
	if !ok {
		return nil, false
	}
	n := len(v.rel.Tuples)
	return &Relation{Attrs: v.rel.Attrs, Tuples: v.rel.Tuples[:n:n]}, true
}

// SetOnInvalidate registers fn to be called, with the lowercased
// relation name, after every loud install: Put, Append, and the
// non-silent commits of an Apply batch. Refresh and silent commits do
// not fire it. The server's plan cache registers its eviction here.
// Like Put, SetOnInvalidate must not race queries: install the hook
// before serving. A nil fn unregisters. The hook runs outside db.mu,
// so it may consult the database.
func (db *DB) SetOnInvalidate(fn func(name string)) {
	db.mu.Lock()
	db.onInvalidate = fn
	db.mu.Unlock()
}

// FaultStorage wraps a Storage and fails the k-th Scan call — and every
// later one — with a typed *faultinject.Injected error, modelling a
// storage backend that goes away mid-operation. The countdown is
// deterministic: scans are issued serially by the evaluator in table
// order, so for a fixed workload the same scan fails every run. It is
// the error-mode counterpart of the cancellation injector, and the
// oracle's storage fault pass holds the engine to the same contract
// under it: exact bag or clean typed error, never a partial result.
type FaultStorage struct {
	inner     Storage
	remaining atomic.Int64
}

// NewFaultStorage returns a storage that fails from the k-th Scan on
// (k <= 1 fails every scan).
func NewFaultStorage(inner Storage, k int64) *FaultStorage {
	fs := &FaultStorage{inner: inner}
	fs.remaining.Store(k)
	return fs
}

// Scan implements Storage.
func (f *FaultStorage) Scan(name string) (*ColTable, bool, error) {
	if f.remaining.Add(-1) <= 0 {
		return nil, false, &faultinject.Injected{Site: faultinject.SiteStorage, Op: "scan " + name}
	}
	return f.inner.Scan(name)
}

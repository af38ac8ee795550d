package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// TestFaultStorageContract holds the engine to the I/O-error contract:
// against a backend whose k-th scan (and every later one) fails, every
// execution ends in either the exact correct bag or a clean typed
// *faultinject.Injected error — never a partial result and never an
// untyped failure.
func TestFaultStorageContract(t *testing.T) {
	db, reg, source := ctxFixture(t)
	for _, q := range ctxQueries(t, source) {
		want, err := NewEvaluator(db, reg).Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		sawError, sawSuccess := false, false
		for _, k := range []int64{1, 2, 3, 5, 100} {
			for _, workers := range []int{1, 0} {
				ev := NewEvaluator(db, reg)
				ev.Store = NewFaultStorage(db, k)
				ev.Workers = workers
				got, err := ev.ExecContext(context.Background(), q)
				if err != nil {
					if !faultinject.IsInjected(err) {
						t.Fatalf("k=%d workers=%d: untyped error under storage fault: %v", k, workers, err)
					}
					if got != nil {
						t.Fatalf("k=%d workers=%d: partial result alongside the error", k, workers)
					}
					sawError = true
					continue
				}
				if !MultisetEqual(got, want) {
					t.Fatalf("k=%d workers=%d: result differs from the clean run", k, workers)
				}
				sawSuccess = true
			}
		}
		if !sawError {
			t.Fatalf("query %v: no countdown ever tripped (k=1 must fail the first scan)", q.Tables)
		}
		if !sawSuccess {
			t.Fatalf("query %v: even k=100 failed; the fixture issues fewer scans than that", q.Tables)
		}
	}
}

// TestFaultStorageErrorNotMemoized pins that a view materialization
// aborted by a storage fault is not cached: the same evaluator succeeds
// once the backend recovers.
func TestFaultStorageErrorNotMemoized(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[3] // reads VSum

	ev := NewEvaluator(db, reg)
	ev.Store = NewFaultStorage(db, 1)
	if _, err := ev.ExecContext(context.Background(), q); !faultinject.IsInjected(err) {
		t.Fatalf("want injected storage error, got %v", err)
	}
	ev.Store = nil // backend recovers
	got, err := ev.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("recovered evaluator still failing: %v", err)
	}
	want, err := NewEvaluator(db, reg).Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !MultisetEqual(got, want) {
		t.Fatal("result after recovery differs from the clean run")
	}
}

// TestExecContextMemBudget exercises the memory dimension of the
// resource budget: a tiny MaxMemBytes trips a typed Exceeded from the
// columnar allocator, a generous one changes nothing about the result.
func TestExecContextMemBudget(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[2] // join: scans, gathers, join output

	m := budget.NewMeter(budget.Limits{MaxMemBytes: 64})
	out, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
	if out != nil {
		t.Fatal("memory-tripped exec returned a partial relation")
	}
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "memory" || e.Limit != 64 {
		t.Fatalf("want memory Exceeded with limit 64, got %v", err)
	}

	want, err := NewEvaluator(db, reg).Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	m = budget.NewMeter(budget.Limits{MaxMemBytes: 1 << 40})
	got, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
	if err != nil {
		t.Fatalf("generous memory budget tripped: %v", err)
	}
	if !MultisetEqual(got, want) {
		t.Fatal("memory-budgeted result differs from unbudgeted result")
	}
	if m.Mem() == 0 {
		t.Fatal("meter charged no bytes")
	}
}

// TestExecContextCacheEntriesBudget exercises the view-cache dimension:
// a query over two distinct views needs two cache entries, so a limit of
// one trips with a typed Exceeded while a limit of two succeeds.
func TestExecContextCacheEntriesBudget(t *testing.T) {
	db, reg, source := ctxFixture(t)
	tables := ir.MapSource{"R1": {"A", "B"}, "R2": {"C", "D"}}
	vd, err := ir.NewViewDef("VCnt", ir.MustBuild("SELECT C, COUNT(D) FROM R2 GROUP BY C", tables))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(vd); err != nil {
		t.Fatal(err)
	}
	source = ir.MultiSource{tables, reg}
	q := ir.MustBuild("SELECT v.A, w.count_D FROM VSum v, VCnt w WHERE v.A = w.C", source)

	m := budget.NewMeter(budget.Limits{MaxCacheEntries: 1})
	out, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
	if out != nil {
		t.Fatal("cache-tripped exec returned a partial relation")
	}
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "cache_entries" || e.Limit != 1 {
		t.Fatalf("want cache_entries Exceeded with limit 1, got %v", err)
	}

	m = budget.NewMeter(budget.Limits{MaxCacheEntries: 2})
	if _, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q); err != nil {
		t.Fatalf("two entries should fit a limit of two: %v", err)
	}
}

// TestDBOnInvalidateHook pins the invalidation seam the serving layer's
// plan cache hangs off: the hook fires with the lowercased relation
// name on Put, Append and the loud commits of an Apply batch, in batch
// order; Refresh and silent commits never fire it; a nil fn
// unregisters it.
func TestDBOnInvalidateHook(t *testing.T) {
	db := NewDB()
	var fired []string
	db.SetOnInvalidate(func(name string) { fired = append(fired, name) })

	db.Put("Sales", NewRelation("a"))
	db.Append("SALES", []value.Value{value.Int(1)})
	if db.Append("Missing", []value.Value{value.Int(1)}) {
		t.Fatal("Append to an absent relation reported success")
	}
	db.Refresh("Sales", NewRelation("a"))
	db.Apply([]Commit{
		{Name: "Items", Rel: NewRelation("b")},
		{Name: "VSales", Rel: NewRelation("a"), Silent: true},
		{Name: "Sales", Rel: NewRelation("a")},
	})
	if want := []string{"sales", "sales", "items", "sales"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("hook observed %v, want %v", fired, want)
	}

	// The hook runs outside db.mu, so it may consult the database, and
	// it already sees the version that fired it.
	db.SetOnInvalidate(func(name string) {
		ct, ok, err := db.Scan(name)
		if err != nil || !ok || ct.NumRows() != 2 {
			t.Errorf("hook scan of %s: rows=%v ok=%v err=%v, want the new 2-row version", name, ct.NumRows(), ok, err)
		}
	})
	db.Put("Sales", relOf(2))

	db.SetOnInvalidate(nil)
	db.Put("Sales", NewRelation("a")) // must not panic
}

// relOf returns a one-column relation holding the ints 0..n-1.
func relOf(n int) *Relation {
	r := NewRelation("a")
	for i := 0; i < n; i++ {
		r.Add(value.Int(int64(i)))
	}
	return r
}

func mustScan(t *testing.T, st Storage, name string) *ColTable {
	t.Helper()
	ct, ok, err := st.Scan(name)
	if err != nil || !ok {
		t.Fatalf("scan %s: ok=%v err=%v", name, ok, err)
	}
	return ct
}

// TestImageSharedPerVersion pins the storage contract: installed
// relations are immutable and each version has exactly one columnar
// image, shared by DB.Scan and every snapshot that pinned it. Every
// install path starts a new version with a new image, while older
// snapshots keep scanning the rows they pinned.
func TestImageSharedPerVersion(t *testing.T) {
	db := NewDB()
	db.Put("R", relOf(1))
	s1, s2 := db.Snapshot(), db.Snapshot()
	img := mustScan(t, s1, "R")
	if mustScan(t, s2, "r") != img || mustScan(t, db, "R") != img {
		t.Fatal("two snapshots of one version and DB.Scan returned different images")
	}

	installs := []struct {
		name string
		rows int
		do   func()
	}{
		{"Put", 3, func() { db.Put("R", relOf(3)) }},
		{"Append", 4, func() { db.Append("R", []value.Value{value.Int(9)}) }},
		{"Refresh", 2, func() { db.Refresh("R", relOf(2)) }},
		{"Apply", 5, func() { db.Apply([]Commit{{Name: "R", Rel: relOf(5), Silent: true}}) }},
	}
	prev, prevImg, prevRows := s1, img, 1
	for _, in := range installs {
		in.do()
		s := db.Snapshot()
		got := mustScan(t, s, "R")
		if got == prevImg {
			t.Fatalf("%s: a new snapshot reused the previous version's image", in.name)
		}
		if got.NumRows() != in.rows {
			t.Fatalf("%s: new image has %d rows, want %d", in.name, got.NumRows(), in.rows)
		}
		if mustScan(t, db, "R") != got || mustScan(t, db.Snapshot(), "R") != got {
			t.Fatalf("%s: DB.Scan and a second snapshot do not share the new image", in.name)
		}
		old := mustScan(t, prev, "R")
		if old != prevImg || old.NumRows() != prevRows {
			t.Fatalf("%s: older snapshot scans %d rows, want its pinned %d", in.name, old.NumRows(), prevRows)
		}
		if r, _ := prev.Relation("R"); r.Len() != prevRows {
			t.Fatalf("%s: older snapshot's relation has %d rows, want %d", in.name, r.Len(), prevRows)
		}
		prev, prevImg, prevRows = s, got, in.rows
	}
}

// TestImageBuiltOncePerVersion races the first scans of one version
// from DB.Scan and several snapshots: all of them must get the same
// image (run it under -race).
func TestImageBuiltOncePerVersion(t *testing.T) {
	db := NewDB()
	db.Put("R", relOf(5000))
	stores := []Storage{db}
	for i := 0; i < 8; i++ {
		stores = append(stores, db.Snapshot())
	}
	imgs := make([]*ColTable, len(stores))
	var wg sync.WaitGroup
	for i, st := range stores {
		wg.Add(1)
		go func(i int, st Storage) {
			defer wg.Done()
			imgs[i], _, _ = st.Scan("R")
		}(i, st)
	}
	wg.Wait()
	for i, img := range imgs {
		if img == nil || img != imgs[0] {
			t.Fatalf("scan %d got a different image than scan 0", i)
		}
	}
}

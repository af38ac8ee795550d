package aggview_test

import (
	"fmt"
	"testing"

	"aggview"
	"aggview/internal/datagen"
)

// keyedWriteSystem builds the telco warehouse with calls Calls rows and
// the serving benchmark's two views, V1 (a join view) and VC (a
// single-table view), tracked so every write goes through counting
// maintenance.
func keyedWriteSystem(tb testing.TB, calls int) *aggview.System {
	tb.Helper()
	s := aggview.New()
	s.Catalog = datagen.TelcoCatalog()
	s.AdoptDB(datagen.Telco(datagen.TelcoConfig{Calls: calls, Customers: 1000, Seed: 1}),
		"Calls", "Calling_Plans", "Customer")
	for _, v := range []struct{ name, sql string }{
		{"V1", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans
			WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`},
		{"VC", `SELECT Cust_Id, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Cust_Id`},
	} {
		s.MustDefineView(v.name, v.sql)
		if _, err := s.TrackView(v.name); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// keyedWrites returns an operation that deletes one Calls row and
// updates another by key, each call addressing fresh keys so every
// statement matches exactly one row.
func keyedWrites(tb testing.TB, s *aggview.System, calls int) func() {
	next := 0
	return func() {
		k := next
		next++
		n, err := s.Delete("Calls", fmt.Sprintf("Call_Id = %d", k))
		if err != nil || n != 1 {
			tb.Fatalf("delete Call_Id = %d: n=%d err=%v", k, n, err)
		}
		n, err = s.Update("Calls", "Charge = Charge + 1", fmt.Sprintf("Call_Id = %d", calls-1-k))
		if err != nil || n != 1 {
			tb.Fatalf("update Call_Id = %d: n=%d err=%v", calls-1-k, n, err)
		}
	}
}

// TestKeyedWriteAllocsFlat gates the write-cost model of DESIGN.md §14:
// a single-row keyed DELETE plus UPDATE on Calls, with V1 and VC
// tracked, allocates the same at 100k rows as at 10k. Stored rows are
// removed by identity and the WHERE clause is compiled once, so what
// scales with the table is pointer copying, not per-row allocation.
func TestKeyedWriteAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-row warehouse")
	}
	allocs := func(calls int) float64 {
		s := keyedWriteSystem(t, calls)
		return testing.AllocsPerRun(20, keyedWrites(t, s, calls))
	}
	small, large := allocs(10000), allocs(100000)
	t.Logf("allocs per keyed delete+update: %.0f at 10k rows, %.0f at 100k rows", small, large)
	if large > 1.1*small {
		t.Fatalf("keyed writes allocate %.0f at 100k rows vs %.0f at 10k: more than 1.1x, so a write allocates per stored row", large, small)
	}
}

// TestMutationStatementErrors pins when a DELETE or UPDATE statement is
// checked against its table: never for an empty table (nothing to
// match, so 0 rows and no error, as before compilation), and for a
// populated one once per statement, before any row is read — so an
// unknown column fails even behind a conjunct no row satisfies.
func TestMutationStatementErrors(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		s := aggview.New()
		s.MustLoad(`CREATE TABLE T(A, B); CREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A`)
		if tracked {
			if _, err := s.TrackView("V"); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := s.Delete("T", "Z = 1"); n != 0 || err != nil {
			t.Fatalf("tracked=%v: delete from empty table: n=%d err=%v, want 0, nil", tracked, n, err)
		}
		if n, err := s.Update("T", "Z = 1", ""); n != 0 || err != nil {
			t.Fatalf("tracked=%v: update of empty table: n=%d err=%v, want 0, nil", tracked, n, err)
		}
		if err := s.Insert("T", []aggview.Value{aggview.Int(1), aggview.Int(10)}, []aggview.Value{aggview.Int(2), aggview.Int(20)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete("T", "A = 99 AND Z = 1"); err == nil {
			t.Fatalf("tracked=%v: unknown column behind an unsatisfied conjunct must fail", tracked)
		}
		if _, err := s.Update("T", "Z = 1", "A = 99"); err == nil {
			t.Fatalf("tracked=%v: SET of an unknown column must fail", tracked)
		}
		if n, err := s.Update("T", "B = B + A", "A = 2"); n != 1 || err != nil {
			t.Fatalf("tracked=%v: update: n=%d err=%v", tracked, n, err)
		}
		if n, err := s.Delete("T", "A = 1"); n != 1 || err != nil {
			t.Fatalf("tracked=%v: delete: n=%d err=%v", tracked, n, err)
		}
		res := s.MustQuery("SELECT A, B FROM T")
		if res.Len() != 1 || res.Tuples[0][0].AsInt() != 2 || res.Tuples[0][1].AsInt() != 22 {
			t.Fatalf("tracked=%v: table after update+delete: %s", tracked, res)
		}
	}
}

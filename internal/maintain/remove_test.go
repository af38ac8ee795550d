package maintain

import (
	"errors"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/value"
)

// removeByValue is the reference removal: a pure keyOf bag match, the
// semantics removeBag's identity pass must preserve.
func removeByValue(tuples, deletes [][]value.Value) ([][]value.Value, bool) {
	want := map[string]int{}
	for _, r := range deletes {
		want[keyOf(r)]++
	}
	var out [][]value.Value
	removed := 0
	for _, t := range tuples {
		if k := keyOf(t); want[k] > 0 {
			want[k]--
			removed++
			continue
		}
		out = append(out, t)
	}
	return out, removed == len(deletes)
}

// bagOf counts rows by canonical key.
func bagOf(rows [][]value.Value) map[string]int {
	bag := map[string]int{}
	for _, r := range rows {
		bag[keyOf(r)]++
	}
	return bag
}

func sameBag(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	bb := bagOf(b)
	for k, n := range bagOf(a) {
		if bb[k] != n {
			return false
		}
	}
	return true
}

// aliases reports whether some row of rows is the very slice r.
func aliases(rows [][]value.Value, r []value.Value) bool {
	for _, t := range rows {
		if len(t) == len(r) && len(r) > 0 && &t[0] == &r[0] {
			return true
		}
	}
	return false
}

func TestRemoveBagAliasedDelete(t *testing.T) {
	stored := [][]value.Value{txn(1, 0, 1, 10), txn(2, 0, 1, 10), txn(3, 1, 2, 5)}
	out, err := removeBag(stored, [][]value.Value{stored[1]}, 0, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || aliases(out, stored[1]) || !aliases(out, stored[0]) || !aliases(out, stored[2]) {
		t.Fatalf("aliased delete removed the wrong row: %v", out)
	}
}

// TestRemoveBagOutOfOrderDeletes hands removeBag aliased deletes in
// reverse stored order: the identity walk stops at the first one it
// passes, and the rest are matched by value.
func TestRemoveBagOutOfOrderDeletes(t *testing.T) {
	stored := [][]value.Value{txn(1, 0, 1, 10), txn(2, 0, 1, 10), txn(3, 1, 2, 5)}
	out, err := removeBag(stored, [][]value.Value{stored[2], stored[0]}, 0, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !aliases(out, stored[1]) {
		t.Fatalf("out-of-order deletes: got %v, want only %v", out, stored[1])
	}
}

func TestRemoveBagValueEqualFallback(t *testing.T) {
	stored := [][]value.Value{txn(1, 0, 1, 10), txn(2, 0, 1, 10), txn(3, 1, 2, 5)}
	fresh := txn(2, 0, 1, 10) // equal to stored[1], but a different slice
	out, err := removeBag(stored, [][]value.Value{fresh}, 0, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]value.Value{stored[0], stored[2]}; !sameBag(out, want) || aliases(out, stored[1]) {
		t.Fatalf("value-equal delete: got %v, want %v", out, want)
	}
}

func TestRemoveBagSliceStoredTwice(t *testing.T) {
	r := txn(1, 0, 1, 10)
	s := txn(2, 0, 1, 20)
	stored := [][]value.Value{r, s, r}
	out, err := removeBag(stored, [][]value.Value{r}, 0, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !aliases(out, r) || !aliases(out, s) {
		t.Fatalf("one delete of a twice-stored slice must remove exactly one copy: %v", out)
	}
	out, err = removeBag(stored, [][]value.Value{r, r}, 0, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !aliases(out, s) {
		t.Fatalf("two deletes of a twice-stored slice must remove both copies: %v", out)
	}
	if _, err := removeBag(stored, [][]value.Value{r, r, r}, 0, "Txns"); !errors.Is(err, ErrAbsentRow) {
		t.Fatalf("three deletes of a twice-stored slice: err=%v, want ErrAbsentRow", err)
	}
}

func TestRemoveBagIntMatchesFloat(t *testing.T) {
	stored := [][]value.Value{{value.Float(1), value.Str("a")}, {value.Float(2), value.Str("a")}}
	out, err := removeBag(stored, [][]value.Value{{value.Int(1), value.Str("a")}}, 0, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !aliases(out, stored[1]) {
		t.Fatalf("Int(1) must remove the stored Float(1) row, as keyOf matches them: %v", out)
	}
}

func TestRemoveBagZeroWidthRows(t *testing.T) {
	stored := [][]value.Value{{}, {}}
	out, err := removeBag(stored, [][]value.Value{{}}, 0, "T")
	if err != nil || len(out) != 1 {
		t.Fatalf("zero-width delete: out=%v err=%v", out, err)
	}
}

// TestRemoveBagAbsentRowLeavesDBUntouched drives the absent-row error
// through a batch whose other delete is an aliased hit: the identity
// pass must not leak a partial removal into the database.
func TestRemoveBagAbsentRowLeavesDBUntouched(t *testing.T) {
	m, db, reg := setup(t, "SELECT Acct_Id, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id")
	if _, err := m.Track("V"); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("Txns", txn(1, 0, 1, 10), txn(2, 1, 1, 20)); err != nil {
		t.Fatal(err)
	}
	before, _ := db.Get("Txns")
	err := m.Apply(Mutation{Table: "Txns", Deletes: [][]value.Value{before.Tuples[0], txn(99, 9, 9, 9)}})
	if !errors.Is(err, ErrAbsentRow) {
		t.Fatalf("err=%v, want ErrAbsentRow", err)
	}
	after, _ := db.Get("Txns")
	if after != before {
		t.Fatalf("failed batch installed a new Txns version: %s", after)
	}
	check(t, m, db, reg)
}

// TestRemoveBagMatchesValueReference checks removeBag against the pure
// value match on random multisets: stored rows with repeated slices and
// value-equal duplicates (int and float spellings of one number),
// deleted through a mix of aliased slices, fresh copies and absent
// rows.
func TestRemoveBagMatchesValueReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	num := func(n int64) value.Value {
		if rng.Intn(3) == 0 {
			return value.Float(float64(n))
		}
		return value.Int(n)
	}
	row := func() []value.Value { return []value.Value{num(rng.Int63n(4)), num(rng.Int63n(3))} }
	for trial := 0; trial < 500; trial++ {
		var stored [][]value.Value
		for i := rng.Intn(30); i > 0; i-- {
			if len(stored) > 0 && rng.Intn(4) == 0 {
				stored = append(stored, stored[rng.Intn(len(stored))]) // same slice again
			} else {
				stored = append(stored, row())
			}
		}
		var deletes [][]value.Value
		for i := rng.Intn(16); i > 0; i-- {
			switch {
			case len(stored) > 0 && rng.Intn(2) == 0:
				deletes = append(deletes, stored[rng.Intn(len(stored))])
			case len(stored) > 0 && rng.Intn(2) == 0:
				src := stored[rng.Intn(len(stored))]
				deletes = append(deletes, append([]value.Value{}, src...))
			default:
				deletes = append(deletes, row())
			}
		}
		want, ok := removeByValue(stored, deletes)
		got, err := removeBag(stored, deletes, 0, "T")
		if !ok {
			if !errors.Is(err, ErrAbsentRow) {
				t.Fatalf("trial %d: reference refuses the batch, removeBag returned err=%v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameBag(got, want) {
			t.Fatalf("trial %d: removeBag left %v, reference %v", trial, got, want)
		}
	}
}

// TestRemoveBagCapacity pins the insert path's single allocation: the
// staged slice has room for the batch's inserts, so appending them
// does not copy the table a second time.
func TestRemoveBagCapacity(t *testing.T) {
	stored := engine.NewRelation("Txn_Id", "Acct_Id", "Day", "Amount")
	for i := int64(0); i < 100; i++ {
		stored.Add(txn(i, i%3, 1, i)...)
	}
	out, err := removeBag(stored.Tuples, stored.Tuples[:2], 5, "Txns")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 98 || cap(out) != 103 {
		t.Fatalf("len=%d cap=%d, want 98 and 103", len(out), cap(out))
	}
}

package sqlparser

import (
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/value"
)

// The reference below is a brute-force tree walk: every column
// reference is resolved by name on every row, and every comparison
// goes through value.Compare. The compiled closures must select the
// same rows, compute the same values, and fail on the same rows.

func refExpr(e Expr, cols []string, row []value.Value) (value.Value, bool) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, true
	case *ColumnRef:
		for i, c := range cols {
			if strings.EqualFold(c, x.Name) {
				return row[i], true
			}
		}
		return value.Value{}, false
	case *BinExpr:
		l, ok := refExpr(x.L, cols, row)
		if !ok {
			return value.Value{}, false
		}
		r, ok := refExpr(x.R, cols, row)
		if !ok {
			return value.Value{}, false
		}
		var v value.Value
		var err error
		switch x.Op {
		case OpAdd:
			v, err = value.Add(l, r)
		case OpSub:
			v, err = value.Sub(l, r)
		case OpMul:
			v, err = value.Mul(l, r)
		case OpDiv:
			v, err = value.Div(l, r)
		default:
			return value.Value{}, false
		}
		return v, err == nil
	}
	return value.Value{}, false
}

func refCond(e Expr, cols []string, row []value.Value) (bool, bool) {
	if e == nil {
		return true, true
	}
	b := e.(*BinExpr)
	if b.Op == OpAnd {
		l, ok := refCond(b.L, cols, row)
		if !ok || !l {
			return false, ok
		}
		return refCond(b.R, cols, row)
	}
	l, ok := refExpr(b.L, cols, row)
	if !ok {
		return false, false
	}
	r, ok := refExpr(b.R, cols, row)
	if !ok {
		return false, false
	}
	if !value.Comparable(l, r) {
		return b.Op == OpNeq, true
	}
	c := value.Compare(l, r)
	switch b.Op {
	case OpEq:
		return c == 0, true
	case OpNeq:
		return c != 0, true
	case OpLt:
		return c < 0, true
	case OpLeq:
		return c <= 0, true
	case OpGt:
		return c > 0, true
	default:
		return c >= 0, true
	}
}

// gen builds random rows, scalar expressions and conditions over the
// columns A, B, C, whose values mix ints, floats, strings and bools so
// that incomparable kinds and failing arithmetic both occur.
type gen struct {
	rng  *rand.Rand
	cols []string
}

func (g *gen) val() value.Value {
	switch g.rng.Intn(6) {
	case 0:
		return value.Float(float64(g.rng.Intn(5)) / 2)
	case 1:
		return value.Str([]string{"a", "b", "c"}[g.rng.Intn(3)])
	case 2:
		return value.Bool(g.rng.Intn(2) == 0)
	default:
		return value.Int(int64(g.rng.Intn(5) - 1))
	}
}

func (g *gen) row() []value.Value {
	r := make([]value.Value, len(g.cols))
	for i := range r {
		r[i] = g.val()
	}
	return r
}

func (g *gen) col() *ColumnRef {
	name := g.cols[g.rng.Intn(len(g.cols))]
	if g.rng.Intn(2) == 0 {
		name = strings.ToLower(name)
	}
	return &ColumnRef{Name: name}
}

func (g *gen) expr(depth int) Expr {
	switch k := g.rng.Intn(5); {
	case depth > 0 && k == 0:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv}
		return &BinExpr{Op: ops[g.rng.Intn(len(ops))], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case k <= 2:
		return g.col()
	default:
		return &Lit{Val: g.val()}
	}
}

func (g *gen) cond(depth int) Expr {
	if depth > 0 && g.rng.Intn(3) == 0 {
		return &BinExpr{Op: OpAnd, L: g.cond(depth - 1), R: g.cond(depth - 1)}
	}
	ops := []BinOp{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq}
	op := ops[g.rng.Intn(len(ops))]
	if g.rng.Intn(2) == 0 {
		// The keyed form, column op int constant, has its own closure.
		return &BinExpr{Op: op, L: g.col(), R: &Lit{Val: g.val()}}
	}
	return &BinExpr{Op: op, L: g.expr(2), R: g.expr(2)}
}

func TestCompiledCondMatchesReference(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewSource(7)), cols: []string{"A", "B", "C"}}
	rows := make([][]value.Value, 64)
	for i := range rows {
		rows[i] = g.row()
	}
	for trial := 0; trial < 2000; trial++ {
		var where Expr
		if trial > 0 {
			where = g.cond(3)
		}
		match, err := CompileCond(where, g.cols)
		if err != nil {
			t.Fatalf("compile %s: %v", where.SQL(), err)
		}
		for _, row := range rows {
			want, wantOK := refCond(where, g.cols, row)
			got, err := match(row)
			if (err == nil) != wantOK || (wantOK && got != want) {
				t.Fatalf("WHERE %s on %v: compiled (%v, %v), reference (%v, ok=%v)", where.SQL(), row, got, err, want, wantOK)
			}
		}
	}
}

func TestCompiledSetMatchesReference(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewSource(8)), cols: []string{"A", "B", "C"}}
	rows := make([][]value.Value, 64)
	for i := range rows {
		rows[i] = g.row()
	}
	for trial := 0; trial < 1000; trial++ {
		set := make([]Assignment, 1+g.rng.Intn(3))
		for i := range set {
			set[i] = Assignment{Col: g.col().Name, Expr: g.expr(2)}
		}
		list, err := CompileSet(set, g.cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			old := append([]value.Value{}, row...)
			want := append([]value.Value{}, row...)
			wantOK := true
			for _, a := range set {
				v, ok := refExpr(a.Expr, g.cols, row)
				if !ok {
					wantOK = false
					break
				}
				for i, c := range g.cols {
					if strings.EqualFold(c, a.Col) {
						want[i] = v
					}
				}
			}
			got, err := list.Apply(row)
			if (err == nil) != wantOK {
				t.Fatalf("SET on %v: compiled err=%v, reference ok=%v", row, err, wantOK)
			}
			for i := range row {
				if row[i] != old[i] {
					t.Fatalf("Apply modified its input row: %v -> %v", old, row)
				}
				if wantOK && got[i] != want[i] {
					t.Fatalf("SET on %v: compiled %v, reference %v", row, got, want)
				}
			}
		}
	}
}

// TestCompileRejectsEagerly pins that a statement's shape errors surface
// once, at compile time, whatever the rows would have been.
func TestCompileRejectsEagerly(t *testing.T) {
	cols := []string{"A", "B"}
	for _, tc := range []struct {
		name string
		e    Expr
	}{
		{"unknown column behind a false conjunct", &BinExpr{Op: OpAnd,
			L: &BinExpr{Op: OpEq, L: &Lit{Val: value.Int(1)}, R: &Lit{Val: value.Int(2)}},
			R: &BinExpr{Op: OpEq, L: &ColumnRef{Name: "Z"}, R: &Lit{Val: value.Int(1)}}}},
		{"scalar as condition", &ColumnRef{Name: "A"}},
		{"arithmetic as condition", &BinExpr{Op: OpAdd, L: &ColumnRef{Name: "A"}, R: &Lit{Val: value.Int(1)}}},
		{"aggregate operand", &BinExpr{Op: OpEq, L: &AggExpr{Func: AggSum, Arg: &ColumnRef{Name: "A"}}, R: &Lit{Val: value.Int(1)}}},
		{"condition as operand", &BinExpr{Op: OpEq,
			L: &BinExpr{Op: OpLt, L: &ColumnRef{Name: "A"}, R: &ColumnRef{Name: "B"}}, R: &Lit{Val: value.Int(1)}}},
	} {
		if _, err := CompileCond(tc.e, cols); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
	if _, err := CompileSet([]Assignment{{Col: "Z", Expr: &Lit{Val: value.Int(1)}}}, cols); err == nil {
		t.Error("SET of an unknown column compiled")
	}
	if _, err := CompileSet([]Assignment{{Col: "A", Expr: &ColumnRef{Name: "Z"}}}, cols); err == nil {
		t.Error("SET from an unknown column compiled")
	}
}

package sqlparser

import (
	"cmp"
	"fmt"
	"strings"

	"aggview/internal/value"
)

// This file compiles the scalar fragment of the expression grammar —
// column references, literals, arithmetic, comparisons and AND — into
// per-row closures over one table's columns. It is what gives
// DELETE ... WHERE and UPDATE ... SET their semantics everywhere a
// statement must be applied outside the engine proper: the facade's
// mutation entry points and the oracle's script replayer both compile
// through it, so a mutation script means the same thing in both places
// by construction. Column names resolve to positions once per
// statement (case-insensitively; qualifiers on column references are
// ignored — the mutation grammar is single-table), so a statement's
// shape errors (unknown column, aggregate, non-condition) surface at
// compile time and the per-row work is the closures alone.

// RowExpr is a scalar expression compiled against a table's columns.
type RowExpr func(row []value.Value) (value.Value, error)

// RowCond is a condition compiled against a table's columns.
type RowCond func(row []value.Value) (bool, error)

// CompileExpr compiles a scalar expression against a table whose
// attribute names are cols. Aggregates and conditions are rejected.
func CompileExpr(e Expr, cols []string) (RowExpr, error) {
	switch x := e.(type) {
	case *Lit:
		v := x.Val
		return func([]value.Value) (value.Value, error) { return v, nil }, nil
	case *ColumnRef:
		i, err := columnAt(cols, x.Name)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) { return row[i], nil }, nil
	case *BinExpr:
		var op func(a, b value.Value) (value.Value, error)
		switch x.Op {
		case OpAdd:
			op = value.Add
		case OpSub:
			op = value.Sub
		case OpMul:
			op = value.Mul
		case OpDiv:
			op = value.Div
		case OpAnd, OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
			return nil, fmt.Errorf("sqlparser: condition %s where a scalar is required", x.SQL())
		default:
			return nil, fmt.Errorf("sqlparser: unsupported operator %q", x.Op)
		}
		l, err := CompileExpr(x.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(x.R, cols)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			a, err := l(row)
			if err != nil {
				return value.Value{}, err
			}
			b, err := r(row)
			if err != nil {
				return value.Value{}, err
			}
			return op(a, b)
		}, nil
	case *AggExpr:
		return nil, fmt.Errorf("sqlparser: aggregate %s not allowed in a row expression", x.SQL())
	default:
		return nil, fmt.Errorf("sqlparser: unsupported expression %T", e)
	}
}

// CompileCond compiles a condition — an AND-tree of comparisons —
// against a table whose attribute names are cols. A nil condition
// compiles to true (the unconditional WHERE).
func CompileCond(e Expr, cols []string) (RowCond, error) {
	if e == nil {
		return func([]value.Value) (bool, error) { return true, nil }, nil
	}
	b, ok := e.(*BinExpr)
	if !ok {
		return nil, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	if b.Op == OpAnd {
		l, err := CompileCond(b.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := CompileCond(b.R, cols)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (bool, error) {
			ok, err := l(row)
			if err != nil || !ok {
				return false, err
			}
			return r(row)
		}, nil
	}
	// holds[c+1] is the comparison's outcome when its operands compare
	// as c (-1, 0 or +1).
	var holds [3]bool
	switch b.Op {
	case OpEq:
		holds = [3]bool{false, true, false}
	case OpNeq:
		holds = [3]bool{true, false, true}
	case OpLt:
		holds = [3]bool{true, false, false}
	case OpLeq:
		holds = [3]bool{true, true, false}
	case OpGt:
		holds = [3]bool{false, false, true}
	case OpGeq:
		holds = [3]bool{false, true, true}
	default:
		return nil, fmt.Errorf("sqlparser: %s is not a condition", e.SQL())
	}
	// Incomparable kinds compare false (and <> true), matching the
	// engine's compare — a WHERE clause must select the same rows here
	// as it does in a query.
	incomparable := b.Op == OpNeq
	compare := func(x, y value.Value) bool {
		if !value.Comparable(x, y) {
			return incomparable
		}
		return holds[value.Compare(x, y)+1]
	}
	if c, ok := b.L.(*ColumnRef); ok {
		if lit, ok := b.R.(*Lit); ok && lit.Val.Kind() == value.KindInt {
			// The keyed form, column op int constant, reads the
			// column's kind and integer in place: copying the whole
			// value out touches a second cache line for about half the
			// rows, and a keyed DELETE or UPDATE is a scan bound by
			// those misses (through the general closure below,
			// BenchmarkDeleteKeyed runs about 1.75x slower and the
			// ingest benchmark serves about a fifth fewer reads/s).
			i, err := columnAt(cols, c.Name)
			if err != nil {
				return nil, err
			}
			v, k := lit.Val, lit.Val.AsInt()
			return func(row []value.Value) (bool, error) {
				if x := &row[i]; x.Kind() == value.KindInt {
					return holds[cmp.Compare(x.AsInt(), k)+1], nil
				}
				return compare(row[i], v), nil
			}, nil
		}
	}
	l, err := CompileExpr(b.L, cols)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(b.R, cols)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value) (bool, error) {
		x, err := l(row)
		if err != nil {
			return false, err
		}
		y, err := r(row)
		if err != nil {
			return false, err
		}
		return compare(x, y), nil
	}, nil
}

// SetList is an UPDATE's SET list compiled against a table's columns.
type SetList struct {
	cols  []string // assigned column names, for error messages
	at    []int    // assigned column positions
	exprs []RowExpr
}

// CompileSet compiles the assignments of an UPDATE against a table
// whose attribute names are cols.
func CompileSet(set []Assignment, cols []string) (*SetList, error) {
	s := &SetList{cols: make([]string, len(set)), at: make([]int, len(set)), exprs: make([]RowExpr, len(set))}
	for i, a := range set {
		at, err := columnAt(cols, a.Col)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: SET %s: %w", a.Col, err)
		}
		e, err := CompileExpr(a.Expr, cols)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: SET %s: %w", a.Col, err)
		}
		s.cols[i], s.at[i], s.exprs[i] = a.Col, at, e
	}
	return s, nil
}

// Apply returns row's replacement: a fresh copy with every assignment
// evaluated over the old values. row itself is left unchanged.
func (s *SetList) Apply(row []value.Value) ([]value.Value, error) {
	next := make([]value.Value, len(row))
	copy(next, row)
	for i, e := range s.exprs {
		v, err := e(row)
		if err != nil {
			return nil, fmt.Errorf("sqlparser: SET %s: %w", s.cols[i], err)
		}
		next[s.at[i]] = v
	}
	return next, nil
}

// columnAt resolves a column name to its position in cols.
func columnAt(cols []string, name string) (int, error) {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqlparser: unknown column %q", name)
}

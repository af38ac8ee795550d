// Package maintain keeps materialized aggregation views consistent
// under base-table inserts, deletes and updates. The paper treats view
// maintenance as orthogonal ([BLT86, GMS93]) but its motivating
// scenarios — warehouse summary tables, chronicle ledgers — assume
// somebody maintains the materializations; this package is that
// somebody.
//
// Maintenance follows the counting algorithm of GMS93. Each group of a
// tracked aggregation view carries a multiplicity count n (the number
// of contributing joined rows) plus per-aggregate auxiliary state:
// running SUM totals, a float running total for AVG, and a value →
// multiplicity multiset for MIN/MAX. A mutation batch against one base
// table is evaluated as two delta queries — the view definition with
// that table bound to the deleted rows, then to the inserted rows —
// which is exact when the table occurs exactly once in the definition
// (joins are bilinear). Deleted contributions subtract: n decreases,
// sums decrease, and a MIN/MAX whose extremum's multiplicity reaches
// zero is re-derived by re-scanning the group's surviving value
// multiset. A group whose n reaches zero leaves the materialization.
// Views outside the incrementally maintainable class (DISTINCT, HAVING,
// self-joins over the changed table, MIN/MAX over non-column
// arguments, dependence through a nested view) fall back to full
// recomputation — counted on the `maintain.fallback.full` metric — so
// every mutation is always correct.
//
// Batches apply atomically: every delta evaluation and recomputation
// runs first, against the pre-mutation state (plus previously staged
// tables of the same batch); only when all of them have succeeded are
// the new base relations and materializations installed, in one
// engine.DB.Apply critical section. A cancellation — including one
// injected at faultinject.SiteMaintain — therefore leaves the database
// exactly as it was. Readers that pin an engine.Snapshot see either
// none or all of a batch, never a half-applied mix; maintained
// materializations install silently (DB.Refresh semantics), so warm
// prepared plans over a view that absorbed its delta are not evicted.
package maintain

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aggview/internal/budget"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// Maintainer propagates base-table mutations to tracked
// materializations.
type Maintainer struct {
	db    *engine.DB
	views *ir.Registry

	// Metrics, when set, observes maintenance decisions:
	// maintain.fallback.full counts full recomputations (shape or
	// self-join fallbacks), maintain.batch.apply counts committed
	// batches, maintain.delta.rows counts delta rows merged.
	Metrics *obs.Metrics
	// Workers sizes the worker pools of the delta and recompute
	// evaluations (0 = serial), like engine.Evaluator.Workers.
	Workers int

	mu      sync.Mutex
	tracked map[string]*state
}

// Mutation is one base table's part of an atomic batch: rows to remove
// (matched as a multiset against the current tuples) and rows to
// append.
type Mutation struct {
	Table   string
	Deletes [][]value.Value
	Inserts [][]value.Value
}

// state is one tracked view's counting state.
type state struct {
	def *ir.ViewDef
	// incremental is false when the view's shape needs full
	// recomputation on every change (DISTINCT, HAVING, non-column
	// MIN/MAX arguments, lossy group keys).
	incremental bool
	// conjunctive marks a view maintained as a plain bag of projected
	// rows (no aggregation).
	conjunctive bool
	// groupPos lists the select positions holding grouping columns;
	// aggs the positions holding aggregate outputs.
	groupPos []int
	aggs     []aggOut
	// aux is the main delta query: group columns, SUM arguments, and a
	// trailing COUNT(*) for the multiplicity. sumAt in each aggOut
	// indexes into its select list.
	aux *ir.Query
	nAt int // position of COUNT(*) in aux's select
	// direct counts direct FROM occurrences per lowercased base table;
	// trans marks every transitive base table; viaView marks tables
	// whose dependence flows through a nested view (delta-unsafe).
	direct  map[string]int
	trans   map[string]bool
	viaView map[string]bool
	depth   int // nesting depth over other tracked views, for commit order
	// groups is the counting state, keyed by group key.
	groups map[string]*group
	// rel is the installed materialization; index maps a group key to
	// its tuple position in rel (aggregation views only).
	rel   *engine.Relation
	index map[string]int
}

type aggOut struct {
	pos   int // select position in the view definition
	fn    ir.AggFunc
	sumAt int       // position of SUM(arg) in aux's select; -1 if unused
	mm    *ir.Query // MIN/MAX value-multiplicity delta query; nil otherwise
}

// group is one group's multiplicity and auxiliary aggregate state.
type group struct {
	groupVals []value.Value
	n         int64
	aggs      []aggState
}

// aggState is the auxiliary state of one aggregate output in one group.
type aggState struct {
	sum  value.Value         // SUM: running total, typed like the engine's fold
	avg  float64             // AVG: running float total (mirrors engine accum)
	vals map[string]*mmEntry // MIN/MAX: value multiset
}

type mmEntry struct {
	v value.Value
	n int64
}

// New builds a maintainer over a database and view registry.
func New(db *engine.DB, views *ir.Registry) *Maintainer {
	return &Maintainer{db: db, views: views, tracked: map[string]*state{}}
}

// evaluator builds a fresh engine evaluator over the live database.
func (m *Maintainer) evaluator() *engine.Evaluator {
	ev := engine.NewEvaluator(m.db, m.views)
	ev.Workers = m.Workers
	return ev
}

// Track materializes the named view (if needed) and begins maintaining
// it. It reports whether maintenance is incremental or recompute-based.
// Track runs unbounded; use TrackContext to bound the materialization.
func (m *Maintainer) Track(name string) (incremental bool, err error) {
	return m.TrackContext(context.Background(), name)
}

// TrackContext is Track under a context: cancellation and deadline
// expiry abort the initial materialization with a typed error.
func (m *Maintainer) TrackContext(ctx context.Context, name string) (incremental bool, err error) {
	v, ok := m.views.Get(name)
	if !ok {
		return false, fmt.Errorf("maintain: unknown view %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &state{def: v}
	st.incremental = classify(v.Def, st)
	st.resolveSources(m.views, m.trackedDepthLocked())
	rel, err := m.evaluator().ExecContext(ctx, v.Def)
	if err != nil {
		return false, err
	}
	rel.Attrs = append([]string{}, v.OutCols...)
	st.rel = rel
	if st.incremental && !st.conjunctive {
		buildAux(st)
		if err := m.seedGroups(ctx, st); err != nil {
			return false, err
		}
		st.buildIndex()
	}
	m.db.Put(v.Name, rel)
	m.tracked[strings.ToLower(name)] = st
	return st.incremental, nil
}

// trackedDepthLocked returns the nesting depth of each tracked view.
func (m *Maintainer) trackedDepthLocked() map[string]int {
	d := make(map[string]int, len(m.tracked))
	for k, st := range m.tracked {
		d[k] = st.depth
	}
	return d
}

// classify decides whether the view's shape admits counting deltas and
// fills the select-position metadata.
func classify(def *ir.Query, st *state) bool {
	if def.Distinct || len(def.Having) > 0 {
		// Neither is delta-monotone: a delete can resurrect a
		// suppressed duplicate or re-admit a filtered group.
		return false
	}
	if !def.IsAggregationQuery() {
		st.conjunctive = true
		return true
	}
	grouped := map[ir.ColID]bool{}
	for _, g := range def.GroupBy {
		grouped[g] = true
	}
	selected := map[ir.ColID]bool{}
	for pos, it := range def.Select {
		switch x := it.Expr.(type) {
		case *ir.ColRef:
			if !grouped[x.Col] {
				return false
			}
			selected[x.Col] = true
			st.groupPos = append(st.groupPos, pos)
		case *ir.Agg:
			fn := x.Func
			if x.Star {
				fn = ir.AggCount
			}
			switch fn {
			case ir.AggSum, ir.AggCount, ir.AggAvg:
				st.aggs = append(st.aggs, aggOut{pos: pos, fn: fn, sumAt: -1})
			case ir.AggMin, ir.AggMax:
				if _, ok := x.Arg.(*ir.ColRef); !ok {
					// The value-multiset delta query groups by the
					// argument, and GROUP BY holds columns only.
					return false
				}
				st.aggs = append(st.aggs, aggOut{pos: pos, fn: fn, sumAt: -1})
			default:
				return false
			}
		default:
			return false
		}
	}
	for _, g := range def.GroupBy {
		if !selected[g] {
			// A grouping column missing from the select list makes the
			// projected group key lossy: two distinct groups would
			// collide in the materialization index.
			return false
		}
	}
	return true
}

// resolveSources fills the direct/transitive base-table maps, expanding
// FROM sources that name registry views, and computes the nesting depth
// over already-tracked views.
func (st *state) resolveSources(views *ir.Registry, trackedDepth map[string]int) {
	st.direct = map[string]int{}
	st.trans = map[string]bool{}
	st.viaView = map[string]bool{}
	var expand func(q *ir.Query, nested bool, seen map[string]bool)
	expand = func(q *ir.Query, nested bool, seen map[string]bool) {
		for _, t := range q.Tables {
			key := strings.ToLower(t.Source)
			if v, ok := views.Get(t.Source); ok {
				if !nested {
					if d, tracked := trackedDepth[key]; tracked && d+1 > st.depth {
						st.depth = d + 1
					} else if st.depth == 0 {
						st.depth = 1
					}
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				inner := map[string]bool{}
				for k := range seen {
					inner[k] = true
				}
				expandNested(v.Def, st, views, inner)
				continue
			}
			st.trans[key] = true
			if nested {
				st.viaView[key] = true
			} else {
				st.direct[key]++
			}
		}
	}
	expand(st.def.Def, false, map[string]bool{})
}

// expandNested marks every base table reachable from a nested view
// definition as view-mediated (delta-unsafe).
func expandNested(q *ir.Query, st *state, views *ir.Registry, seen map[string]bool) {
	for _, t := range q.Tables {
		key := strings.ToLower(t.Source)
		if v, ok := views.Get(t.Source); ok {
			if seen[key] {
				continue
			}
			seen[key] = true
			expandNested(v.Def, st, views, seen)
			continue
		}
		st.trans[key] = true
		st.viaView[key] = true
	}
}

// buildAux constructs the delta queries: the main one (group columns,
// SUM arguments, COUNT(*)) and one value-multiplicity query per MIN/MAX
// output.
func buildAux(st *state) {
	def := st.def.Def
	base := def.Clone()
	base.Distinct = false
	base.Having = nil

	var sel []ir.SelectItem
	for _, p := range st.groupPos {
		sel = append(sel, ir.SelectItem{Expr: base.Select[p].Expr})
	}
	for i := range st.aggs {
		a := &st.aggs[i]
		src := base.Select[a.pos].Expr.(*ir.Agg)
		switch a.fn {
		case ir.AggSum, ir.AggAvg:
			a.sumAt = len(sel)
			sel = append(sel, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggSum, Arg: src.Arg}})
		case ir.AggMin, ir.AggMax:
			arg := src.Arg.(*ir.ColRef)
			mm := def.Clone()
			mm.Distinct = false
			mm.Having = nil
			var mmSel []ir.SelectItem
			for _, p := range st.groupPos {
				mmSel = append(mmSel, ir.SelectItem{Expr: mm.Select[p].Expr})
			}
			mmSel = append(mmSel, ir.SelectItem{Expr: &ir.ColRef{Col: arg.Col}})
			mmSel = append(mmSel, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggCount, Star: true}})
			mm.Select = mmSel
			inGroup := false
			for _, g := range mm.GroupBy {
				if g == arg.Col {
					inGroup = true
				}
			}
			if !inGroup {
				mm.GroupBy = append(mm.GroupBy, arg.Col)
			}
			a.mm = mm
		}
	}
	st.nAt = len(sel)
	sel = append(sel, ir.SelectItem{Expr: &ir.Agg{Func: ir.AggCount, Star: true}})
	base.Select = sel
	st.aux = base
}

// seedGroups initializes the counting state by running the delta
// queries against the full current database.
func (m *Maintainer) seedGroups(ctx context.Context, st *state) error {
	st.groups = map[string]*group{}
	ev := m.evaluator()
	main, err := ev.ExecContext(ctx, st.aux)
	if err != nil {
		return err
	}
	k := len(st.groupPos)
	for _, row := range main.Tuples {
		g := &group{groupVals: append([]value.Value{}, row[:k]...), aggs: make([]aggState, len(st.aggs))}
		g.n = row[st.nAt].AsInt()
		for i, a := range st.aggs {
			if a.sumAt >= 0 {
				g.aggs[i].sum = row[a.sumAt]
				g.aggs[i].avg = row[a.sumAt].AsFloat()
			}
		}
		st.groups[keyOf(row[:k])] = g
	}
	for i, a := range st.aggs {
		if a.mm == nil {
			continue
		}
		res, err := ev.ExecContext(ctx, a.mm)
		if err != nil {
			return err
		}
		for _, row := range res.Tuples {
			g, ok := st.groups[keyOf(row[:k])]
			if !ok {
				return fmt.Errorf("maintain: inconsistent seed for view %s", st.def.Name)
			}
			if g.aggs[i].vals == nil {
				g.aggs[i].vals = map[string]*mmEntry{}
			}
			v := row[k]
			g.aggs[i].vals[v.Key()] = &mmEntry{v: v, n: row[k+1].AsInt()}
		}
	}
	return nil
}

// keyOf is the canonical key of a tuple: each value's key followed by
// a NUL, built in one buffer so a key costs one allocation.
func keyOf(vals []value.Value) string {
	var buf [128]byte
	b := buf[:0]
	for _, v := range vals {
		b = append(v.AppendKey(b), 0)
	}
	return string(b)
}

func (st *state) buildIndex() {
	st.index = make(map[string]int, len(st.rel.Tuples))
	for i, t := range st.rel.Tuples {
		st.index[st.groupKey(t)] = i
	}
}

// groupKey is keyOf over the tuple's group-by columns.
func (st *state) groupKey(tuple []value.Value) string {
	var buf [128]byte
	b := buf[:0]
	for _, p := range st.groupPos {
		b = append(tuple[p].AppendKey(b), 0)
	}
	return string(b)
}

// Insert appends rows to a base table and updates every tracked view
// that depends on it. Insert runs unbounded; use InsertContext to bound
// the delta evaluations and recomputations.
func (m *Maintainer) Insert(table string, rows ...[]value.Value) error {
	return m.InsertContext(context.Background(), table, rows...)
}

// InsertContext is Insert under a context; it is an insert-only batch.
func (m *Maintainer) InsertContext(ctx context.Context, table string, rows ...[]value.Value) error {
	return m.ApplyContext(ctx, Mutation{Table: table, Inserts: rows})
}

// Apply runs an unbounded mutation batch; use ApplyContext to bound it.
func (m *Maintainer) Apply(muts ...Mutation) error {
	return m.ApplyContext(context.Background(), muts...)
}

// pending is one tracked view's staged outcome within a batch.
type pending struct {
	st        *state
	recompute bool
	groups    map[string]*group // cloned map; touched groups deep-copied
	touched   map[string]bool
	copied    map[string]bool
	conjAdd   [][]value.Value
	conjDel   map[string]int64
	newRel    *engine.Relation
	newIndex  map[string]int
	newGroups map[string]*group
}

// ApplyContext applies an atomic mutation batch: every delta and
// recomputation is evaluated against the pre-batch state (plus earlier
// tables staged within the same batch), and only if all evaluations
// succeed are the new base relations and materializations installed in
// one atomic engine commit. On any error — including a cancellation
// injected at faultinject.SiteMaintain — the database is left exactly
// as it was.
//
// Base-table installs fire the DB invalidation hook (plans scanning the
// table are stale); maintained materializations install silently, so
// warm plans over a view that absorbed its delta survive.
func (m *Maintainer) ApplyContext(ctx context.Context, muts ...Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inj := faultinject.From(ctx)

	// Stage base-table replacements (validating arity and delete
	// multiset membership) without installing anything.
	overlay := map[string]*engine.Relation{}
	order := make([]string, 0, len(muts))
	deltaRows := 0
	for _, mut := range muts {
		key := strings.ToLower(mut.Table)
		rel, ok := overlay[key]
		if !ok {
			if rel, ok = m.db.Get(mut.Table); !ok {
				return fmt.Errorf("maintain: unknown table %q", mut.Table)
			}
		}
		for _, rows := range [2][][]value.Value{mut.Deletes, mut.Inserts} {
			for _, r := range rows {
				if len(r) != len(rel.Attrs) {
					return fmt.Errorf("maintain: arity mismatch inserting into %s", mut.Table)
				}
			}
		}
		newTuples, err := removeBag(rel.Tuples, mut.Deletes, len(mut.Inserts), mut.Table)
		if err != nil {
			return err
		}
		newTuples = append(newTuples, mut.Inserts...)
		overlay[key] = &engine.Relation{Attrs: rel.Attrs, Tuples: newTuples}
		order = append(order, key)
		deltaRows += len(mut.Deletes) + len(mut.Inserts)
	}

	// Evaluate deltas per mutation, in order: each delta sees the new
	// state of previously processed tables and the old state of later
	// ones, which telescopes to the exact batch result.
	pend := map[string]*pending{}
	committed := map[string]*engine.Relation{}
	for i, mut := range muts {
		key := order[i]
		for _, name := range m.sortedTrackedLocked() {
			st := m.tracked[name]
			if !st.trans[key] {
				continue
			}
			p := pend[name]
			if p == nil {
				p = newPending(st)
				pend[name] = p
			}
			if p.recompute {
				continue
			}
			if !st.incremental || st.direct[key] != 1 || st.viaView[key] {
				p.recompute = true
				m.Metrics.Volatile("maintain.fallback.full").Inc()
				continue
			}
			inj.Observe(faultinject.SiteMaintain, 1)
			if err := budget.Check(ctx, "maintain.delta"); err != nil {
				return err
			}
			if err := m.applyDeltaLocked(ctx, st, p, mut.Table, committed, mut.Deletes, -1); err != nil {
				return err
			}
			if err := m.applyDeltaLocked(ctx, st, p, mut.Table, committed, mut.Inserts, +1); err != nil {
				return err
			}
		}
		committed[key] = overlay[key]
	}

	// Build the staged materializations; recompute fallbacks evaluate
	// against the fully mutated base state plus previously staged
	// views, in nesting order.
	names := make([]string, 0, len(pend))
	for name := range pend {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := m.tracked[names[i]], m.tracked[names[j]]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return names[i] < names[j]
	})
	staged := map[string]*engine.Relation{}
	for _, name := range names {
		p := pend[name]
		st := p.st
		if p.recompute {
			inj.Observe(faultinject.SiteMaintain, 1)
			if err := budget.Check(ctx, "maintain.recompute"); err != nil {
				return err
			}
			// The database as it will be once the batch commits.
			store := m.db.Snapshot().With(overlay, staged)
			ev := m.evaluator()
			ev.Store = store
			rel, err := ev.ExecContext(ctx, st.def.Def)
			if err != nil {
				return err
			}
			rel.Attrs = append([]string{}, st.def.OutCols...)
			p.newRel = rel
			if st.incremental && !st.conjunctive {
				// Counting state must be rebuilt to match the fresh
				// materialization.
				reseed := &state{}
				*reseed = *st
				reseed.rel = rel
				if err := m.seedGroupsOn(ctx, reseed, store); err != nil {
					return err
				}
				p.newGroups = reseed.groups
			}
		} else if st.conjunctive {
			p.newRel = p.buildConjunctive()
		} else {
			p.newRel = p.buildAggregation()
			p.newGroups = p.groups
		}
		if !st.conjunctive && st.incremental {
			p.newIndex = indexOf(st, p.newRel)
		}
		staged[name] = p.newRel
	}

	// Final injection point before the commit: the batch is still
	// all-or-nothing because nothing below can fail.
	inj.Observe(faultinject.SiteMaintain, 1)
	if err := budget.Check(ctx, "maintain.commit"); err != nil {
		return err
	}

	batch := make([]engine.Commit, 0, len(order)+len(names))
	for _, key := range order {
		batch = append(batch, engine.Commit{Name: key, Rel: overlay[key]})
	}
	for _, name := range names {
		batch = append(batch, engine.Commit{Name: pend[name].st.def.Name, Rel: pend[name].newRel, Silent: true})
	}
	m.db.Apply(batch)
	for _, name := range names {
		p := pend[name]
		p.st.rel = p.newRel
		if p.newGroups != nil {
			p.st.groups = p.newGroups
		}
		if p.newIndex != nil {
			p.st.index = p.newIndex
		}
	}
	m.Metrics.Volatile("maintain.batch.apply").Inc()
	m.Metrics.Volatile("maintain.delta.rows").Add(int64(deltaRows))
	return nil
}

// sortedTrackedLocked returns tracked view keys in deterministic order.
func (m *Maintainer) sortedTrackedLocked() []string {
	names := make([]string, 0, len(m.tracked))
	for k := range m.tracked {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func newPending(st *state) *pending {
	p := &pending{st: st, touched: map[string]bool{}, copied: map[string]bool{}}
	if st.conjunctive {
		p.conjDel = map[string]int64{}
		return p
	}
	p.groups = make(map[string]*group, len(st.groups))
	for k, g := range st.groups {
		p.groups[k] = g
	}
	return p
}

// ErrAbsentRow reports a batch that deletes a row the table does not
// hold (more copies than it holds, for a repeated row); the batch
// aborts with nothing installed.
var ErrAbsentRow = errors.New("maintain: delete of absent row")

// removeBag removes a multiset of rows from tuples, returning a fresh
// slice with room for extra more rows (the batch's inserts); a row not
// present is a typed error (the batch aborts cleanly).
//
// Deleted rows are matched to stored rows by identity first. The
// facade selects them with one in-order scan of the installed version,
// and copy-on-write versions share row slices and keep their order, so
// its deletes are a subsequence of tuples: one merge walk removes them
// with a pointer comparison per stored row, no formatted key. Identity
// implies value equality, so the walk removes a row the value match
// could also have removed and leaves the same multiset. Deletes the
// walk does not reach (a fresh value-equal copy, a zero-width row, a
// batch out of stored order) fall back to the keyOf bag match over the
// survivors.
func removeBag(tuples, deletes [][]value.Value, extra int, table string) ([][]value.Value, error) {
	out := make([][]value.Value, 0, max(len(tuples)-len(deletes), 0)+extra)
	j := 0 // deletes[:j] are removed by identity
	for i, t := range tuples {
		if j == len(deletes) {
			out = append(out, tuples[i:]...)
			break
		}
		if d := deletes[j]; len(t) > 0 && len(t) == len(d) && &t[0] == &d[0] {
			j++
			continue
		}
		out = append(out, t)
	}
	if j == len(deletes) {
		return out, nil
	}

	// Fallback: bag-match the deletes the walk did not reach by value.
	rest := deletes[j:]
	want := len(rest)
	byKey := make(map[string]int, want)
	for _, r := range rest {
		byKey[keyOf(r)]++
	}
	kept := out[:0]
	for _, t := range out {
		if k := keyOf(t); byKey[k] > 0 {
			byKey[k]--
			want--
			continue
		}
		kept = append(kept, t)
	}
	if want != 0 {
		return nil, fmt.Errorf("%w from %s", ErrAbsentRow, table)
	}
	return kept, nil
}

// applyDeltaLocked evaluates the view's delta queries with table bound
// to rows and folds the result into the pending group state with the
// given sign (+1 insert, -1 delete).
func (m *Maintainer) applyDeltaLocked(ctx context.Context, st *state, p *pending, table string, committed map[string]*engine.Relation, rows [][]value.Value, sign int64) error {
	if len(rows) == 0 {
		return nil
	}
	base, ok := committed[strings.ToLower(table)]
	if !ok {
		if base, ok = m.db.Get(table); !ok {
			return fmt.Errorf("maintain: unknown table %q", table)
		}
	}
	// The database with this batch's earlier tables committed and table
	// swapped for the delta rows.
	delta := &engine.Relation{Attrs: base.Attrs, Tuples: rows}
	store := m.db.Snapshot().With(committed, map[string]*engine.Relation{strings.ToLower(table): delta})
	ev := m.evaluator()
	ev.Store = store

	if st.conjunctive {
		res, err := ev.ExecContext(ctx, st.def.Def)
		if err != nil {
			return err
		}
		if sign > 0 {
			p.conjAdd = append(p.conjAdd, res.Tuples...)
		} else {
			for _, t := range res.Tuples {
				p.conjDel[keyOf(t)]++
			}
		}
		return nil
	}

	k := len(st.groupPos)
	res, err := ev.ExecContext(ctx, st.aux)
	if err != nil {
		return err
	}
	for _, row := range res.Tuples {
		key := keyOf(row[:k])
		g := p.group(key, row[:k], len(st.aggs))
		g.n += sign * row[st.nAt].AsInt()
		if g.n < 0 {
			return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
		}
		for i, a := range st.aggs {
			if a.sumAt < 0 {
				continue
			}
			d := row[a.sumAt]
			as := &g.aggs[i]
			// The zero Value is Int(0), the correct additive identity:
			// int groups stay int, a float delta promotes, mirroring
			// the engine's earliest-value sum typing.
			op := value.Add
			if sign < 0 {
				op = value.Sub
			}
			s, err := op(as.sum, d)
			if err != nil {
				return err
			}
			as.sum = s
			as.avg += float64(sign) * d.AsFloat()
		}
	}
	for i, a := range st.aggs {
		if a.mm == nil {
			continue
		}
		res, err := ev.ExecContext(ctx, a.mm)
		if err != nil {
			return err
		}
		for _, row := range res.Tuples {
			key := keyOf(row[:k])
			g := p.group(key, row[:k], len(st.aggs))
			as := &g.aggs[i]
			if as.vals == nil {
				as.vals = map[string]*mmEntry{}
			}
			v := row[k]
			e, ok := as.vals[v.Key()]
			if !ok {
				e = &mmEntry{v: v}
				as.vals[v.Key()] = e
			}
			e.n += sign * row[k+1].AsInt()
			if e.n < 0 {
				return fmt.Errorf("maintain: negative multiplicity in view %s", st.def.Name)
			}
			if e.n == 0 {
				// Extremum retraction: the surviving multiset is
				// re-scanned when the output row is rebuilt.
				delete(as.vals, v.Key())
			}
		}
	}
	return nil
}

// group returns the pending group for key, deep-copying it on first
// touch so an aborted batch leaves the live state intact.
func (p *pending) group(key string, groupVals []value.Value, nAggs int) *group {
	if p.copied[key] {
		return p.groups[key]
	}
	g, ok := p.groups[key]
	if !ok {
		g = &group{groupVals: append([]value.Value{}, groupVals...), aggs: make([]aggState, nAggs)}
	} else {
		cp := &group{groupVals: g.groupVals, n: g.n, aggs: make([]aggState, len(g.aggs))}
		for i, as := range g.aggs {
			cp.aggs[i] = aggState{sum: as.sum, avg: as.avg}
			if as.vals != nil {
				cp.aggs[i].vals = make(map[string]*mmEntry, len(as.vals))
				for k, e := range as.vals {
					cp.aggs[i].vals[k] = &mmEntry{v: e.v, n: e.n}
				}
			}
		}
		g = cp
	}
	p.groups[key] = g
	p.copied[key] = true
	p.touched[key] = true
	return g
}

// buildConjunctive stages the new materialization of a conjunctive
// view: surviving old rows (bag-matched against the delete delta) plus
// appended insert-delta rows.
func (p *pending) buildConjunctive() *engine.Relation {
	old := p.st.rel
	out := make([][]value.Value, 0, len(old.Tuples)+len(p.conjAdd))
	pendingDel := p.conjDel
	for _, t := range old.Tuples {
		k := keyOf(t)
		if pendingDel[k] > 0 {
			pendingDel[k]--
			continue
		}
		out = append(out, t)
	}
	out = append(out, p.conjAdd...)
	return &engine.Relation{Attrs: old.Attrs, Tuples: out}
}

// buildAggregation stages the new materialization of an aggregation
// view: untouched rows keep their position, touched groups are rebuilt
// in place (or dropped at multiplicity zero), new groups append in
// sorted key order.
func (p *pending) buildAggregation() *engine.Relation {
	st := p.st
	old := st.rel
	emitted := map[string]bool{}
	out := make([][]value.Value, 0, len(old.Tuples)+len(p.touched))
	for _, t := range old.Tuples {
		key := st.groupKey(t)
		if !p.touched[key] {
			out = append(out, t)
			continue
		}
		emitted[key] = true
		if g, ok := p.groups[key]; ok && g.n > 0 {
			out = append(out, g.row(st))
		}
	}
	fresh := make([]string, 0, len(p.touched))
	for key := range p.touched {
		if !emitted[key] {
			fresh = append(fresh, key)
		}
	}
	sort.Strings(fresh)
	for _, key := range fresh {
		if g, ok := p.groups[key]; ok && g.n > 0 {
			out = append(out, g.row(st))
		} else {
			delete(p.groups, key)
		}
	}
	for key := range p.touched {
		if g, ok := p.groups[key]; ok && g.n == 0 {
			delete(p.groups, key)
		}
	}
	return &engine.Relation{Attrs: old.Attrs, Tuples: out}
}

// row rebuilds a group's output tuple from its counting state.
func (g *group) row(st *state) []value.Value {
	tuple := make([]value.Value, len(st.def.Def.Select))
	for i, p := range st.groupPos {
		tuple[p] = g.groupVals[i]
	}
	for i, a := range st.aggs {
		as := &g.aggs[i]
		switch a.fn {
		case ir.AggCount:
			tuple[a.pos] = value.Int(g.n)
		case ir.AggSum:
			tuple[a.pos] = as.sum
		case ir.AggAvg:
			tuple[a.pos] = value.Float(as.avg / float64(g.n))
		case ir.AggMin, ir.AggMax:
			var best value.Value
			seen := false
			for _, e := range as.vals {
				if !seen {
					best, seen = e.v, true
					continue
				}
				c := value.Compare(e.v, best)
				if (a.fn == ir.AggMin && c < 0) || (a.fn == ir.AggMax && c > 0) {
					best = e.v
				}
			}
			tuple[a.pos] = best
		}
	}
	return tuple
}

func indexOf(st *state, rel *engine.Relation) map[string]int {
	idx := make(map[string]int, len(rel.Tuples))
	for i, t := range rel.Tuples {
		idx[st.groupKey(t)] = i
	}
	return idx
}

// seedGroupsOn rebuilds counting state against a specific storage.
func (m *Maintainer) seedGroupsOn(ctx context.Context, st *state, store engine.Storage) error {
	st.groups = map[string]*group{}
	ev := m.evaluator()
	ev.Store = store
	main, err := ev.ExecContext(ctx, st.aux)
	if err != nil {
		return err
	}
	k := len(st.groupPos)
	for _, row := range main.Tuples {
		g := &group{groupVals: append([]value.Value{}, row[:k]...), aggs: make([]aggState, len(st.aggs))}
		g.n = row[st.nAt].AsInt()
		for i, a := range st.aggs {
			if a.sumAt >= 0 {
				g.aggs[i].sum = row[a.sumAt]
				g.aggs[i].avg = row[a.sumAt].AsFloat()
			}
		}
		st.groups[keyOf(row[:k])] = g
	}
	for i, a := range st.aggs {
		if a.mm == nil {
			continue
		}
		res, err := ev.ExecContext(ctx, a.mm)
		if err != nil {
			return err
		}
		for _, row := range res.Tuples {
			g, ok := st.groups[keyOf(row[:k])]
			if !ok {
				return fmt.Errorf("maintain: inconsistent seed for view %s", st.def.Name)
			}
			if g.aggs[i].vals == nil {
				g.aggs[i].vals = map[string]*mmEntry{}
			}
			v := row[k]
			g.aggs[i].vals[v.Key()] = &mmEntry{v: v, n: row[k+1].AsInt()}
		}
	}
	return nil
}

// Materialization returns the maintained relation of a tracked view.
func (m *Maintainer) Materialization(name string) (*engine.Relation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return st.rel, true
}

// IsIncremental reports whether a tracked view merges deltas (true) or
// recomputes (false).
func (m *Maintainer) IsIncremental(name string) (bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[strings.ToLower(name)]
	if !ok {
		return false, false
	}
	return st.incremental, true
}

// Tracks reports whether the named view is maintained.
func (m *Maintainer) Tracks(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.tracked[strings.ToLower(name)]
	return ok
}

// GroupCounts returns a copy of an aggregation view's multiplicity
// counts by group key — the counting algorithm's core invariant, which
// the property tests (insert∘delete = identity) assert on directly.
func (m *Maintainer) GroupCounts(name string) (map[string]int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tracked[strings.ToLower(name)]
	if !ok || st.groups == nil {
		return nil, false
	}
	out := make(map[string]int64, len(st.groups))
	for k, g := range st.groups {
		out[k] = g.n
	}
	return out, true
}

// Resync recomputes every tracked view that transitively depends on
// table, rebuilding counting state — the escape hatch for embedders
// that replace a base relation wholesale (System.SetRelation) behind
// the maintainer's back.
func (m *Maintainer) Resync(ctx context.Context, table string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(table)
	names := m.sortedTrackedLocked()
	sort.Slice(names, func(i, j int) bool {
		a, b := m.tracked[names[i]], m.tracked[names[j]]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		st := m.tracked[name]
		if !st.trans[key] {
			continue
		}
		rel, err := m.evaluator().ExecContext(ctx, st.def.Def)
		if err != nil {
			return err
		}
		rel.Attrs = append([]string{}, st.def.OutCols...)
		st.rel = rel
		if st.incremental && !st.conjunctive {
			if err := m.seedGroups(ctx, st); err != nil {
				return err
			}
			st.buildIndex()
		}
		m.db.Refresh(st.def.Name, rel)
	}
	return nil
}

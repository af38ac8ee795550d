package main

import (
	"context"
	"fmt"

	"aggview/internal/engine"
	"aggview/internal/server"
)

// checkReads compares the answers of a frozen workload with direct
// (unrewritten) evaluation of the same SQL on the same state, after the
// timed window. Reads marked op.check keep their whole answer and are
// bag-compared; every other read of the same SQL must hash to the same
// answer. A mismatching read is marked failed. It returns how many
// answers were bag-compared.
func checkReads(ctx context.Context, e *env, ops []op, outs []outcome) (int, error) {
	direct := map[string]*engine.Relation{}
	ref := map[string]uint64{}
	compared := 0
	for i, o := range ops {
		out := &outs[i]
		if o.kind != opRead || !o.check || !out.issued || out.err != nil {
			continue
		}
		want, ok := direct[o.sql]
		if !ok {
			var err error
			if want, err = e.sys.QueryContext(ctx, o.sql); err != nil {
				return compared, fmt.Errorf("direct evaluation of %q: %w", o.sql, err)
			}
			direct[o.sql] = want
		}
		got, err := server.DecodeRelation(nil, out.kept)
		if err != nil {
			out.err = err
			continue
		}
		compared++
		if !engine.ResultsEqualBag(want, got) {
			out.err = fmt.Errorf("answer differs from direct evaluation of %q", o.sql)
			continue
		}
		ref[o.sql] = out.hash
	}
	for i, o := range ops {
		out := &outs[i]
		if o.kind != opRead || !out.issued || out.err != nil {
			continue
		}
		if h, ok := ref[o.sql]; ok && h != out.hash {
			out.err = fmt.Errorf("answer differs from the checked answer of the same query %q", o.sql)
		}
	}
	return compared, nil
}

// checkSameAnswers marks failed every read of the replay whose answer
// differs from the timed HTTP pass over the same stream and state.
func checkSameAnswers(ops []op, want, got []outcome) {
	for i, o := range ops {
		if o.kind == opRead && want[i].issued && got[i].issued && got[i].err == nil && want[i].err == nil && want[i].hash != got[i].hash {
			got[i].err = fmt.Errorf("replayed answer differs from the served answer of %q", o.sql)
		}
	}
}

// checkState verifies the state a writing workload leaves: every tracked
// view is bag-equal to its definition evaluated directly, and Calls
// holds the initial rows plus acknowledged inserts minus acknowledged
// deletes.
func checkState(ctx context.Context, e *env, ops []op, outs []outcome) []string {
	var problems []string
	for _, v := range views {
		got, ok := e.sys.DB.Get(v.name)
		if !ok {
			problems = append(problems, fmt.Sprintf("view %s has no materialization", v.name))
			continue
		}
		want, err := e.sys.QueryContext(ctx, v.sql)
		if err != nil {
			problems = append(problems, fmt.Sprintf("direct evaluation of view %s: %v", v.name, err))
			continue
		}
		if !engine.ResultsEqualBag(want, got) {
			problems = append(problems, fmt.Sprintf("view %s (%d rows) differs from its definition evaluated directly (%d rows)", v.name, got.Len(), want.Len()))
		}
	}
	rows := e.calls
	for i, o := range ops {
		if !outs[i].issued || outs[i].err != nil {
			continue
		}
		switch o.kind {
		case opInsert:
			rows += outs[i].acked
		case opDelete:
			rows -= outs[i].acked
		}
	}
	if calls, ok := e.sys.DB.Get("Calls"); !ok || calls.Len() != rows {
		n := -1
		if ok {
			n = calls.Len()
		}
		problems = append(problems, fmt.Sprintf("Calls has %d rows, want %d (initial plus inserts minus deletes)", n, rows))
	}
	return problems
}

// counters are the program counters a timed phase is judged by, read
// from GET /metrics.
type counters struct {
	hits, misses, evictions             int64
	batchApply, fallbackFull, deltaRows int64
	scanRows, scanKept                  int64
}

func scrape(ctx context.Context, c *server.Client) (counters, error) {
	m, err := c.Metrics(ctx)
	if err != nil {
		return counters{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	return counters{
		hits:         m.PlanCache.Hits,
		misses:       m.PlanCache.Misses,
		evictions:    m.PlanCache.Evictions,
		batchApply:   m.Metrics.Volatile["maintain.batch.apply"],
		fallbackFull: m.Metrics.Volatile["maintain.fallback.full"],
		deltaRows:    m.Metrics.Volatile["maintain.delta.rows"],
		scanRows:     m.Metrics.Counters["engine.scan.rows"],
		scanKept:     m.Metrics.Counters["engine.scan.kept"],
	}, nil
}

func (a counters) minus(b counters) counters {
	return counters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, evictions: a.evictions - b.evictions,
		batchApply: a.batchApply - b.batchApply, fallbackFull: a.fallbackFull - b.fallbackFull, deltaRows: a.deltaRows - b.deltaRows,
		scanRows: a.scanRows - b.scanRows, scanKept: a.scanKept - b.scanKept,
	}
}

func (a counters) hitRatio() float64 { return ratio(a.hits, a.hits+a.misses) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkPurpose fails a phase whose traffic drifted off what the
// workload exists to measure: the plan-cache hit ratio outside its
// range, reads answered (or not) from views against the workload's
// design, or maintenance batches that do not match the acknowledged
// writes one for one.
func checkPurpose(w *workload, d counters, ops []op, outs []outcome) []string {
	var problems []string
	if r := d.hitRatio(); r < w.minHitRatio || r > w.maxHitRatio {
		problems = append(problems, fmt.Sprintf("plan-cache hit ratio %.3f outside [%.2f, %.2f] (hits %d, misses %d)", r, w.minHitRatio, w.maxHitRatio, d.hits, d.misses))
	}
	off, writes := 0, 0
	for i, o := range ops {
		if !outs[i].issued || outs[i].err != nil {
			continue
		}
		if o.kind != opRead {
			writes++
		} else if outs[i].used != w.rewritten {
			off++
		}
	}
	if off > 0 {
		problems = append(problems, fmt.Sprintf("%d reads answered from a view=%t, the workload wants %t", off, !w.rewritten, w.rewritten))
	}
	if int64(writes) != d.batchApply {
		problems = append(problems, fmt.Sprintf("maintain.batch.apply advanced by %d for %d acknowledged writes", d.batchApply, writes))
	}
	return problems
}

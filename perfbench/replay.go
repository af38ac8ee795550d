package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/server"
)

// The traced replay runs a workload's operation stream without HTTP,
// calling the program's public functions in the order the server's
// query and write handlers call them, and records a span around each
// call. Spans are kept in memory per client and written out at the end.

type spanName uint8

const (
	spRequest spanName = iota
	spAdmission
	spLockWait
	spPlanKey
	spPlanCache
	spPrepare
	spSnapshot
	spScanBuild
	spExec
	spEncode
	spInsert
	spDelete
	spUpdate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "server.admission", "server.lock_wait", "facade.plankey",
	"server.plancache", "core.prepare", "engine.snapshot", "engine.scan_build",
	"engine.exec", "server.wire.encode", "maintain.insert", "maintain.delete",
	"maintain.update",
}

type span struct {
	req        int32 // op index in the stream
	parent     int32 // index of the parent span in the same recorder; -1 for a request
	name       spanName
	start, end time.Duration // since the replay began
}

// recorder holds one client's spans; only that client appends to it.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) begin(req int, name spanName, parent int) int {
	r.spans = append(r.spans, span{req: int32(req), parent: int32(parent), name: name, start: time.Since(r.base)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.base) }

// replayer executes operations directly against the set-up system. Its
// RWMutex stands in for the server's unexported one: reads hold it
// shared while resolving the plan and pinning the snapshot, writes hold
// it exclusively around the mutation.
type replayer struct {
	e    *env
	mu   sync.RWMutex
	recs []*recorder

	imgMu        sync.Mutex
	lastImg      map[string]*engine.ColTable
	scans, reuse int

	resultRows atomic.Int64
}

func newReplayer(e *env, nops int) *replayer {
	r := &replayer{e: e, lastImg: map[string]*engine.ColTable{}}
	base := time.Now()
	for c := 0; c < numClients; c++ {
		r.recs = append(r.recs, &recorder{base: base, spans: make([]span, 0, 12*(nops/numClients+1))})
	}
	return r
}

func (r *replayer) do(ctx context.Context, c int, i int, o op) outcome {
	rec := r.recs[c]
	root := rec.begin(i, spRequest, -1)
	s := rec.begin(i, spAdmission, root)
	_, release, err := r.e.srv.Admission().Acquire(ctx, r.e.client.Tenant)
	rec.end(s)
	var out outcome
	if err != nil {
		out.err = err
	} else {
		if o.kind == opRead {
			out = r.read(ctx, rec, root, i, o)
		} else {
			out = r.write(ctx, rec, root, i, o)
		}
		release()
	}
	out.end = time.Now()
	rec.end(root)
	return out
}

func (r *replayer) read(ctx context.Context, rec *recorder, root, i int, o op) outcome {
	sys := r.e.sys
	s := rec.begin(i, spLockWait, root)
	r.mu.RLock()
	rec.end(s)
	s = rec.begin(i, spPlanKey, root)
	key, err := sys.PlanKey(o.sql)
	rec.end(s)
	if err != nil {
		r.mu.RUnlock()
		return outcome{err: err}
	}
	s = rec.begin(i, spPlanCache, root)
	p, verdict, err := r.e.srv.Cache().GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) {
		ps := rec.begin(i, spPrepare, s)
		p, err := sys.PrepareContext(ctx, o.sql)
		rec.end(ps)
		return p, err
	})
	rec.end(s)
	if err != nil {
		r.mu.RUnlock()
		return outcome{err: err}
	}
	s = rec.begin(i, spSnapshot, root)
	snap := sys.DB.Snapshot()
	rec.end(s)
	r.mu.RUnlock()

	s = rec.begin(i, spScanBuild, root)
	for _, dep := range p.Deps {
		ct, ok, err := snap.Scan(dep)
		if err != nil {
			rec.end(s)
			return outcome{err: err}
		}
		if ok {
			r.noteImage(dep, ct)
		}
	}
	rec.end(s)

	s = rec.begin(i, spExec, root)
	res, err := sys.ExecPreparedOnContext(ctx, p, snap)
	rec.end(s)
	if err != nil {
		return outcome{err: err}
	}

	s = rec.begin(i, spEncode, root)
	attrs, rows := server.EncodeRelation(res)
	_, err = json.Marshal(server.QueryResponse{Attrs: attrs, Rows: rows, Used: p.Used, Cache: verdict})
	rec.end(s)
	r.resultRows.Add(int64(len(rows)))
	return outcome{err: err, kept: rows, used: len(p.Used) > 0}
}

// noteImage counts whether a scan returned the same columnar image as
// the previous scan of that relation.
func (r *replayer) noteImage(name string, ct *engine.ColTable) {
	r.imgMu.Lock()
	r.scans++
	if r.lastImg[name] == ct {
		r.reuse++
	}
	r.lastImg[name] = ct
	r.imgMu.Unlock()
}

func (r *replayer) write(ctx context.Context, rec *recorder, root, i int, o op) outcome {
	sys := r.e.sys
	var rows [][]aggview.Value
	if o.kind == opInsert {
		var err error
		if rows, err = server.DecodeRows([][]string{o.row}); err != nil {
			return outcome{err: err}
		}
	}
	s := rec.begin(i, spLockWait, root)
	r.mu.Lock()
	rec.end(s)
	var n int
	var err error
	switch o.kind {
	case opInsert:
		s = rec.begin(i, spInsert, root)
		if err = sys.InsertContext(ctx, "Calls", rows...); err == nil {
			n = len(rows)
		}
	case opDelete:
		s = rec.begin(i, spDelete, root)
		n, err = sys.DeleteContext(ctx, "Calls", o.where())
	default:
		s = rec.begin(i, spUpdate, root)
		n, err = sys.UpdateContext(ctx, "Calls", o.set, o.where())
	}
	rec.end(s)
	r.mu.Unlock()
	return outcome{err: err, acked: n}
}

// layers summarizes the spans: each layer's self time (its duration
// minus the part its children cover), and the requests whose children
// cover less than minCoverage of them.
type layers struct {
	self       [numSpanNames][]time.Duration
	lowCover   int
	lowExample []string
}

const minCoverage = 0.9

func (r *replayer) layers(ops []op) *layers {
	l := &layers{}
	for c, rec := range r.recs {
		covered := make([]time.Duration, len(rec.spans))
		for _, sp := range rec.spans {
			if sp.parent >= 0 {
				covered[sp.parent] += sp.end - sp.start
			}
		}
		for j, sp := range rec.spans {
			d := sp.end - sp.start
			l.self[sp.name] = append(l.self[sp.name], d-covered[j])
			if sp.name != spRequest {
				continue
			}
			if d > 0 && float64(covered[j]) < minCoverage*float64(d) {
				l.lowCover++
				if len(l.lowExample) < 3 {
					l.lowExample = append(l.lowExample, fmt.Sprintf("client %d op %d (%s): children cover %.0f%% of %v", c, sp.req, ops[sp.req].kind, 100*float64(covered[j])/float64(d), d))
				}
			}
		}
	}
	return l
}

// p returns a layer's self-time quantile in microseconds and its call
// count.
func (l *layers) p(name spanName, q float64) (float64, int) {
	s := l.self[name]
	return 1000 * quantile(s, q), len(s)
}

// writeSpans dumps every span as one tab-separated line under a header.
// Span ids are "client.index"; a request's parent is empty.
func (r *replayer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for c, rec := range r.recs {
		for j, sp := range rec.spans {
			parent := ""
			if sp.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", c, sp.parent)
			}
			fmt.Fprintf(bw, "%d.%d\t%s\t%d\t%s\t%d\t%d\n", c, j, parent, sp.req, spanNames[sp.name], sp.start.Nanoseconds(), sp.end.Nanoseconds())
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

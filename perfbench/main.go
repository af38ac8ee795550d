// Perfbench is the serving benchmark. It sets up a seeded telco
// warehouse (Example 1.1: Calls, Customer, Calling_Plans, with the views
// V1 and VC), serves it with server.New on a loopback listener in the
// same process, and drives it over HTTP with server.Client through two
// connections. Each workload issues a fixed, seeded number of
// operations:
//
//	dash    open loop at a fixed rate, Zipf over 64 view-answered shapes
//	        with small results
//	scan    closed loop, 6 shapes no view answers
//	adhoc   closed loop, view-answerable, almost every plan key new
//	ingest  closed loop, one write per three dash reads per client
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// also replays the same stream without HTTP, calling the program's
// public functions in the server's order with a span around each call,
// and prints the per-layer metrics. Answers are checked against direct
// evaluation; any failure or mismatch makes it exit 1. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
//
//	bash perfbench/run.sh --workload dash --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // directory for the span dump; empty: not written
	ops      int    // operations per timed phase, for tests; 0: the workload's rate × seconds
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: dash, scan, adhoc or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the data and the operation stream")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length; fixes the operation count at the workload's rate times this")
	trace := flag.Int("trace", 0, "1: add the traced replay and report per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "directory to write the traced replay's spans to (empty: not written)")
	flag.Parse()
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	setupRounds = 5
	// phaseLimit stops a timed phase from issuing further operations, so
	// a run that became several times slower still ends inside the three
	// minutes a run may take; a traced run has two phases.
	phaseLimit = 120 * time.Second
)

func run(ctx context.Context, cfg config, out io.Writer) (*summary, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	n := cfg.ops
	if n == 0 {
		n = w.opCount(cfg.seconds)
		if cfg.trace {
			n /= 2 // two timed phases in about the same time
		}
	}
	ops := w.gen(cfg.seed, n)

	var byKind [4]int
	for _, o := range ops {
		byKind[o.kind]++
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s dash_rate=%d/s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), dashRate)
	loop := fmt.Sprintf("closed loop, %d clients, %.0f ops/s nominal", numClients, w.opsPerSec)
	if w.open {
		loop = fmt.Sprintf("open loop over %d connections at a fixed %.0f requests/s", numClients, w.opsPerSec)
	}
	fmt.Fprintf(out, "ops per timed phase: %d (%s); read=%d insert=%d delete=%d update=%d\n",
		n, loop, byKind[opRead], byKind[opInsert], byKind[opDelete], byKind[opUpdate])
	fmt.Fprintf(out, "data: Calls=%d Customer=%d Calling_Plans=%d; views V1, VC tracked\n", numCalls, numCustomers, numPlans)

	if cfg.trace {
		return traced(ctx, cfg, w, ops, out)
	}
	return untraced(ctx, cfg, w, ops, out)
}

// timedPhase is one pass over the stream with the program counters and
// runtime statistics around it.
type timedPhase struct {
	*phase
	d                  counters
	alloc, gcs, pauses uint64  // bytes allocated, GC cycles, total pause ns
	steal              float64 // share of the host's CPU time the hypervisor took; -1 if unknown
}

func timed(ctx context.Context, e *env, w *workload, ops []op, do doFunc, limit time.Duration) (*timedPhase, error) {
	runtime.GC()
	before, err := scrape(ctx, e.client)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0, total0 := cpuTicks()
	dctx, cancel := context.WithTimeout(ctx, limit)
	p, err := drive(dctx, w, ops, do)
	cancel()
	if err != nil {
		return nil, err
	}
	steal1, total1 := cpuTicks()
	runtime.ReadMemStats(&m1)
	after, err := scrape(ctx, e.client)
	if err != nil {
		return nil, err
	}
	steal := -1.0
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return &timedPhase{
		phase: p, d: after.minus(before),
		alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: uint64(m1.NumGC - m0.NumGC), pauses: m1.PauseTotalNs - m0.PauseTotalNs,
		steal: steal,
	}, nil
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat,
// or zeros where it is not available.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// httpDo sends one operation through the wire client.
func (e *env) httpDo(ctx context.Context, _ int, _ int, o op) outcome {
	var out outcome
	switch o.kind {
	case opRead:
		resp, err := e.client.Query(ctx, o.sql)
		out.end, out.err = time.Now(), err
		if err == nil {
			out.kept, out.used = resp.Rows, len(resp.Used) > 0
		}
	case opInsert:
		resp, err := e.client.Insert(ctx, "Calls", [][]string{o.row})
		out.end, out.err = time.Now(), err
		if err == nil {
			out.acked = resp.Inserted
		}
	case opDelete:
		resp, err := e.client.Delete(ctx, "Calls", o.where())
		out.end, out.err = time.Now(), err
		if err == nil {
			out.acked = resp.Deleted
		}
	case opUpdate:
		resp, err := e.client.Update(ctx, "Calls", o.set, o.where())
		out.end, out.err = time.Now(), err
		if err == nil {
			out.acked = resp.Updated
		}
	}
	return out
}

// verify runs the workload's answer or state checks and its purpose
// checks on a finished HTTP phase. Mismatching reads are marked failed.
func verify(ctx context.Context, w *workload, e *env, ops []op, tp *timedPhase, out io.Writer) ([]string, error) {
	var problems []string
	if w.frozen {
		compared, err := checkReads(ctx, e, ops, tp.outs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "check: %d answers bag-compared with direct evaluation (the first read of each shape at even and at odd stream positions, or every %dth adhoc read); every other read hash-compared with its shape's checked answer\n", compared, adhocCheckEvery)
	} else {
		problems = checkState(ctx, e, ops, tp.outs)
		fmt.Fprintf(out, "check: every write acknowledged exactly 1 row; views V1, VC bag-equal to their definitions; Calls row count = initial + inserts - deletes\n")
	}
	return append(problems, checkPurpose(w, tp.d, ops, tp.outs)...), nil
}

func untraced(ctx context.Context, cfg config, w *workload, ops []op, out io.Writer) (*summary, error) {
	var setups []float64
	var e *env
	for k := 0; k < setupRounds; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if e, err = setup(ctx, w, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	tp, err := timed(ctx, e, w, ops, e.httpDo, phaseLimit)
	if err != nil {
		e.close()
		return nil, err
	}
	problems, err := verify(ctx, w, e, ops, tp, out)
	if err != nil {
		e.close()
		return nil, err
	}
	t := tp.tally(ops)
	wall, steal := tp.wall, tp.steal
	// tp is dead from here on, so the GC drops the client-side answers
	// and the heap below is the server's.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := e.close(); err != nil {
		return nil, err
	}

	printTally(out, w, t, wall, steal)
	fmt.Fprintf(out, "setup: %d rounds %s s (data generation, view materialization, server start, warm-up)\n", len(setups), fmtList(setups))
	m := map[string]float64{
		"read_qps":    float64(len(t.reads)) / wall.Seconds(),
		"read_p50_ms": quantile(t.reads, 0.5),
		"setup_s":     median(setups),
		"heap_mb":     float64(ms.HeapAlloc) / 1e6,
	}
	fmt.Fprintf(out, "metric read_qps = %.4f 1/s\n", m["read_qps"])
	fmt.Fprintf(out, "metric read_p50_ms = %.4f ms (n=%d)\n", m["read_p50_ms"], len(t.reads))
	fmt.Fprintf(out, "metric read_p99_ms = %.4f ms (n=%d; the sample supports p%.2f; reported, not gated)\n",
		quantile(t.reads, 0.99), len(t.reads), supported(len(t.reads)))
	printWrites(out, t, wall)
	fmt.Fprintf(out, "metric error_rate = %.6f (failed %d of %d attempted)\n", ratio(int64(t.failed), int64(t.attempted)), t.failed, t.attempted)
	fmt.Fprintf(out, "metric setup_s = %.4f s (median of %d)\n", m["setup_s"], len(setups))
	fmt.Fprintf(out, "metric heap_mb = %.4f MB (live heap after the run, after a GC)\n", m["heap_mb"])
	return finish(out, endToEnd, m, problems, t), nil
}

func traced(ctx context.Context, cfg config, w *workload, ops []op, out io.Writer) (*summary, error) {
	// Untraced HTTP pass: the reference read latency and runtime costs.
	fmt.Fprintln(out, "-- untraced HTTP pass")
	e, err := setup(ctx, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	hp, err := timed(ctx, e, w, ops, e.httpDo, phaseLimit/2)
	if err != nil {
		e.close()
		return nil, err
	}
	problems, err := verify(ctx, w, e, ops, hp, out)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ht := hp.tally(ops)
	printTally(out, w, ht, hp.wall, hp.steal)

	// Traced replay of the same stream on a fresh system of the same seed.
	fmt.Fprintln(out, "-- traced replay (no HTTP)")
	e, err = setup(ctx, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := newReplayer(e, len(ops))
	rp, err := timed(ctx, e, w, ops, r.do, phaseLimit/2)
	if err != nil {
		e.close()
		return nil, err
	}
	if w.frozen {
		checkSameAnswers(ops, hp.outs, rp.outs)
	} else {
		problems = append(problems, checkState(ctx, e, ops, rp.outs)...)
	}
	problems = append(problems, checkPurpose(w, rp.d, ops, rp.outs)...)
	if err := e.close(); err != nil {
		return nil, err
	}
	rt := rp.tally(ops)
	printTally(out, w, rt, rp.wall, rp.steal)
	if cfg.spans != "" {
		path := filepath.Join(cfg.spans, "spans-"+w.name+".tsv")
		if err := r.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	l := r.layers(ops)
	m, calls := layerMetrics(l, r, ops, hp, rp, ht, rt)
	fmt.Fprintln(out, "-- per-layer metrics (self time of the replay's spans; ratios from /metrics deltas of the replay; runtime.* over the HTTP pass, client included)")
	for _, def := range perLayer {
		note := fmt.Sprintf("n=%d; %s", calls[def.name], def.moves)
		if calls[def.name] == 0 {
			note = "layer does no work on this workload"
		}
		fmt.Fprintf(out, "layer %s = %.4f %s (%s)\n", def.name, m[def.name], def.unit, note)
	}
	if l.lowCover > 0 {
		fmt.Fprintf(out, "finding: %d of %d replayed requests have child spans covering under %.0f%% of them, e.g. %s\n",
			l.lowCover, rt.attempted, 100*minCoverage, strings.Join(l.lowExample, "; "))
	}
	httpRead := m["server.http_us"] + m["trace.read_us.p50"]
	if m["server.http_us"] > 0.1*httpRead {
		fmt.Fprintf(out, "finding: server.http_us is %.0f%% of read_p50_ms (%.1f of %.1f us), over 10%%: HTTP, decoding, the server lock and in-program telemetry cost as much as a layer\n",
			100*m["server.http_us"]/httpRead, m["server.http_us"], httpRead)
	}
	t := ht
	t.attempted += rt.attempted
	t.failed += rt.failed
	t.failures = append(t.failures, rt.failures...)
	return finish(out, perLayer, m, problems, t), nil
}

// layerMetrics derives every per-layer metric, with the number of calls
// or the base it was measured over (0 where the layer did no work).
func layerMetrics(l *layers, r *replayer, ops []op, hp, rp *timedPhase, ht, rt tally) (map[string]float64, map[string]int) {
	m := map[string]float64{}
	calls := map[string]int{}
	for _, t := range []struct {
		name string
		sp   spanName
		q    float64
	}{
		{"server.admission.wait_us.p50", spAdmission, 0.5},
		{"server.admission.wait_us.p99", spAdmission, 0.99},
		{"server.lock_wait_us.p50", spLockWait, 0.5},
		{"server.lock_wait_us.p99", spLockWait, 0.99},
		{"server.plancache.lookup_us.p50", spPlanCache, 0.5},
		{"server.wire.encode_us.p50", spEncode, 0.5},
		{"facade.plankey_us.p50", spPlanKey, 0.5},
		{"core.prepare_us.p50", spPrepare, 0.5},
		{"engine.snapshot_us.p50", spSnapshot, 0.5},
		{"engine.scan_build_us.p50", spScanBuild, 0.5},
		{"engine.exec_us.p50", spExec, 0.5},
		{"maintain.insert_us.p50", spInsert, 0.5},
		{"maintain.delete_us.p50", spDelete, 0.5},
		{"maintain.update_us.p50", spUpdate, 0.5},
	} {
		m[t.name], calls[t.name] = l.p(t.sp, t.q)
	}

	reads, writes := int64(len(rt.reads)), int64(len(rt.writes))
	rewritten := 0
	for i, o := range ops {
		if o.kind == opRead && rp.outs[i].issued && rp.outs[i].used {
			rewritten++
		}
	}
	d := rp.d
	for _, q := range []struct {
		name     string
		num, den int64
		scale    float64
	}{
		{"server.plancache.hit_ratio", d.hits, d.hits + d.misses, 1},
		{"server.plancache.evictions_per_kreq", d.evictions, reads, 1000},
		{"core.rewritten_ratio", int64(rewritten), reads, 1},
		{"engine.image_reuse_ratio", int64(r.reuse), int64(r.scans), 1},
		{"engine.rows_scanned_per_result_row", d.scanRows, r.resultRows.Load(), 1},
		{"engine.scan.kept_ratio", d.scanKept, d.scanRows, 1},
		{"maintain.delta_rows_per_write", d.deltaRows, writes, 1},
		{"maintain.fallback_ratio", d.fallbackFull, d.batchApply, 1},
		{"runtime.alloc_kb_per_op", int64(hp.alloc), int64(ht.attempted), 1.0 / 1024},
		{"runtime.gc_cycles_per_kop", int64(hp.gcs), int64(ht.attempted), 1000},
	} {
		m[q.name], calls[q.name] = q.scale*ratio(q.num, q.den), int(q.den)
	}
	m["runtime.gc_pause_ms"], calls["runtime.gc_pause_ms"] = float64(hp.pauses)/1e6, ht.attempted

	// Both read latencies are timed by the driver the same way, so their
	// difference is what the HTTP path adds.
	httpP50, traceP50 := quantile(ht.reads, 0.5), quantile(rt.reads, 0.5)
	m["trace.read_us.p50"], calls["trace.read_us.p50"] = 1000*traceP50, len(rt.reads)
	m["server.http_us"], calls["server.http_us"] = 1000*(httpP50-traceP50), len(ht.reads)
	m["trace.low_coverage_requests"], calls["trace.low_coverage_requests"] = float64(l.lowCover), rt.attempted
	return m, calls
}

// finish prints the problems and failures and builds the result line
// from the metrics the run reports.
func finish(out io.Writer, defs []metricDef, m map[string]float64, problems []string, t tally) *summary {
	for _, f := range t.failures {
		fmt.Fprintf(out, "FAIL %s\n", f)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "FAIL %s\n", p)
	}
	sum := &summary{
		Correct:   len(problems) == 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range defs {
		sum.Metrics[def.name] = metricValue{Value: m[def.name], Unit: def.unit}
	}
	return sum
}

func printTally(out io.Writer, w *workload, t tally, wall time.Duration, steal float64) {
	if t.attempted < t.stream {
		fmt.Fprintf(out, "warning: phase cut after %d of %d operations at its time limit\n", t.attempted, t.stream)
	}
	fmt.Fprintf(out, "phase: %d attempted (read=%d insert=%d delete=%d update=%d), %d failed, %.3f s",
		t.attempted, t.byKind[opRead], t.byKind[opInsert], t.byKind[opDelete], t.byKind[opUpdate], t.failed, wall.Seconds())
	if steal >= 0 {
		fmt.Fprintf(out, ", host CPU steal %.1f%%", 100*steal)
	}
	fmt.Fprintln(out)
	if w.open {
		fmt.Fprintf(out, "generator: requests sent after their due time by p50 %.4f ms, p99 %.4f ms, max %.4f ms\n",
			quantile(t.late, 0.5), quantile(t.late, 0.99), quantile(t.late, 1))
	}
}

func printWrites(out io.Writer, t tally, wall time.Duration) {
	if len(t.writes) == 0 {
		fmt.Fprintln(out, "metric write_ps, write_p50_ms, write_p90_ms = n/a (no writes on this workload)")
		return
	}
	fmt.Fprintf(out, "metric write_ps = %.4f 1/s\n", float64(len(t.writes))/wall.Seconds())
	fmt.Fprintf(out, "metric write_p50_ms = %.4f ms (n=%d)\n", quantile(t.writes, 0.5), len(t.writes))
	fmt.Fprintf(out, "metric write_p90_ms = %.4f ms (n=%d; the sample supports p%.2f)\n", quantile(t.writes, 0.9), len(t.writes), supported(len(t.writes)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

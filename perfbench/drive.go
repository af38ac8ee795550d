package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one operation returned. end is taken as soon as the
// call returns, before the answer is hashed, so bookkeeping stays out of
// the latency.
type outcome struct {
	issued bool
	end    time.Time
	lat    time.Duration // from the due time (open loop) or the send (closed loop) to the return
	late   time.Duration // open loop: how long after its due time the request was sent
	err    error
	hash   uint64     // read: canonical answer hash
	kept   [][]string // read: the answer; kept past finish only with op.check
	used   bool       // read: answered from a materialized view
	acked  int        // write: rows the server reported affected
}

// finish hashes a read's answer once its latency is taken, and keeps
// the answer itself only when the op is marked for the direct check.
func (out outcome) finish(o op) outcome {
	if o.kind == opRead && out.err == nil {
		out.hash = rowsHash(out.kept)
		if !o.check {
			out.kept = nil
		}
	}
	return out
}

// doFunc executes op i of the stream on behalf of a client and returns
// its outcome (end set; drive fills in lat).
type doFunc func(ctx context.Context, client int, i int, o op) outcome

// phase is one timed pass over an operation stream.
type phase struct {
	outs []outcome
	wall time.Duration // start to last completion
}

// drive runs the stream through numClients concurrent clients. Closed
// loop, client c sends ops c, c+numClients, ..., each when the previous
// one has returned. Open loop, op i falls due rate⁻¹·i after the start
// and goes to whichever client is free first; a request both clients
// are too busy to send on time waits, and that wait counts in its
// latency. It stops issuing when ctx ends; operations never issued stay
// marked so.
func drive(ctx context.Context, w *workload, ops []op, do doFunc) (*phase, error) {
	pacers := make([]*pacer, numClients)
	for c := range pacers {
		if !w.open {
			break
		}
		pc, err := newPacer()
		if err != nil {
			return nil, err
		}
		defer pc.close()
		pacers[c] = pc
	}
	p := &phase{outs: make([]outcome, len(ops))}
	errs := make([]error, numClients)
	var next atomic.Int64 // open loop: the next op to claim
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				i := c + k*numClients
				if w.open {
					i = int(next.Add(1) - 1)
				}
				if i >= len(ops) {
					return
				}
				clock := time.Now()
				if w.open {
					clock = start.Add(time.Duration(float64(i) * float64(time.Second) / w.opsPerSec))
					if errs[c] = pacers[c].waitUntil(clock); errs[c] != nil {
						return
					}
				}
				sent := time.Now()
				out := do(ctx, c, i, ops[i])
				out.issued, out.lat, out.late = true, out.end.Sub(clock), sent.Sub(clock)
				p.outs[i] = out.finish(ops[i])
			}
		}(c)
	}
	wg.Wait()
	var last time.Time
	for _, o := range p.outs {
		if o.issued && o.end.After(last) {
			last = o.end
		}
	}
	p.wall = last.Sub(start)
	return p, errors.Join(errs...)
}

// tally summarizes a phase by operation kind.
type tally struct {
	stream            int // operations in the stream
	attempted, failed int
	reads, writes     []time.Duration // latencies of successful operations
	late              []time.Duration // open loop: send minus due time, every attempt
	byKind            [4]int          // attempted, by opKind
	failures          []string        // first few failure messages
}

func (p *phase) tally(ops []op) tally {
	t := tally{stream: len(ops)}
	for i, o := range p.outs {
		if !o.issued {
			continue
		}
		t.attempted++
		t.byKind[ops[i].kind]++
		t.late = append(t.late, o.late)
		if err := opFailure(ops[i], o); err != nil {
			t.failed++
			if len(t.failures) < 5 {
				t.failures = append(t.failures, fmt.Sprintf("op %d (%s): %v", i, ops[i].kind, err))
			}
			continue
		}
		if ops[i].kind == opRead {
			t.reads = append(t.reads, o.lat)
		} else {
			t.writes = append(t.writes, o.lat)
		}
	}
	return t
}

// opFailure reports why an operation counts as failed: a transport or
// typed error, or a write whose acknowledgement is not exactly one row.
func opFailure(o op, out outcome) error {
	if out.err != nil {
		return out.err
	}
	if o.kind != opRead && out.acked != 1 {
		return fmt.Errorf("acknowledged %d rows, want 1", out.acked)
	}
	return nil
}

// rowsHash hashes a wire-encoded answer independently of row order.
func rowsHash(rows [][]string) uint64 {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// quantile returns the nearest-rank q-quantile of the samples in
// milliseconds, sorting them in place.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	idx = max(0, min(idx, len(samples)-1))
	return float64(samples[idx]) / float64(time.Millisecond)
}

// supported is the highest percentile a sample of n supports: the one
// with at least ten samples beyond it.
func supported(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// TestStreamsDeterministic pins the inputs: the same seed yields a
// byte-identical operation stream (SQL text, rows, write keys) for
// every workload, and another seed yields a different one.
func TestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		n := w.opCount(2)
		a, b := render(w.gen(7, n)), render(w.gen(7, n))
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if render(w.gen(8, n)) == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if render(warmOps(w, 7)) != render(warmOps(w, 7)) {
			t.Errorf("%s: seed 7 gave two different warm-up streams", w.name)
		}
	}
}

// TestIngestKeysDisjoint checks the property the acknowledgement check
// rests on: each client deletes and updates only its own residue class
// of Call_Ids, never a key it already deleted, and inserts fresh keys.
func TestIngestKeysDisjoint(t *testing.T) {
	ops := genIngest(3, 4000)
	deleted := map[int64]bool{}
	inserted := map[int64]bool{}
	for i, o := range ops {
		c := int64(i % numClients)
		switch o.kind {
		case opInsert:
			if o.key%numClients != c || o.key < numCalls || inserted[o.key] {
				t.Fatalf("op %d: client %d inserts key %d", i, c, o.key)
			}
			inserted[o.key] = true
		case opDelete, opUpdate:
			if o.key%numClients != c || deleted[o.key] || (o.key >= numCalls && !inserted[o.key]) {
				t.Fatalf("op %d: client %d %s key %d, which it does not hold", i, c, o.kind, o.key)
			}
			if o.kind == opDelete {
				deleted[o.key] = true
			}
		}
	}
	if len(deleted) == 0 || len(inserted) == 0 {
		t.Fatalf("stream has %d deletes and %d inserts", len(deleted), len(inserted))
	}
}

// TestSmoke runs every workload for a few operations, untraced and
// traced, and requires a correct result with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the 100k-row warehouse several times")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 5, seconds: 1, trace: trace, ops: 40}
			if trace {
				cfg.spans = t.TempDir()
			}
			sum, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, sum.Correct, sum.Attempted, sum.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(sum.Metrics), len(defs))
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

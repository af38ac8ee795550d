package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Data set sizes: the telco warehouse of Example 1.1.
const (
	numCalls     = 100000
	numCustomers = 1000
	numPlans     = 10
	numClients   = 2 // HTTP connections, and replay clients
	dashShapes   = 64
)

// views are the materialized views every workload serves from; both are
// tracked, so plans over them stay warm across base-table writes and
// their dependency lists stop at the view.
var views = []struct{ name, sql string }{
	{"V1", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`},
	{"VC", `SELECT Cust_Id, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Cust_Id`},
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
	opUpdate
)

var opKindNames = [...]string{"read", "insert", "delete", "update"}

func (k opKind) String() string { return opKindNames[k] }

// op is one request of a workload's operation stream. Reads carry SQL;
// inserts carry one wire-encoded Calls row; deletes and updates address
// one Call_Id, so their acknowledgement count is known in advance.
type op struct {
	kind  opKind
	sql   string   // read: the SELECT text
	check bool     // read: answer is kept and compared with direct evaluation
	row   []string // insert: wire-encoded row
	key   int64    // delete, update: Call_Id
	set   string   // update: SET clause body
}

func (o op) where() string { return fmt.Sprintf("Call_Id = %d", o.key) }

// workload describes one traffic mix. Each run issues a fixed number of
// operations, opsPerSec × seconds, so both sides of a comparison take
// percentiles from the same sample count. An open-loop workload sends at
// opsPerSec whatever the server does; for a closed-loop one opsPerSec is
// the throughput measured on a 2-core host when the benchmark was
// defined, so a run lasts about the requested seconds there.
type workload struct {
	name      string
	open      bool // open loop at opsPerSec; closed loop otherwise
	opsPerSec float64
	frozen    bool // no writes: every read can be checked against direct evaluation
	// purpose checks, on the /metrics deltas of a timed phase
	minHitRatio, maxHitRatio float64
	rewritten                bool // every read must be answered from a view
	gen                      func(seed int64, n int) []op
}

// dashRate is the dash open-loop rate in requests per second: about a
// quarter of dash's closed-loop capacity (about 7000/s) on the 2-core
// host the benchmark was defined on. At half of it, 3500/s, episodes of
// 12-25% CPU steal from the hypervisor on that host pushed the server
// past capacity, and read_p50_ms went from 0.34 ms to 1.3-11.8 ms; at
// 1750/s the same episodes moved it by under a quarter. The rate is
// fixed, not recalibrated, so later changes are judged at the same
// offered load.
const dashRate = 1750

var workloads = []*workload{
	{name: "dash", open: true, opsPerSec: dashRate, frozen: true, minHitRatio: 0.95, maxHitRatio: 1, rewritten: true, gen: genDash},
	{name: "scan", opsPerSec: 190, frozen: true, minHitRatio: 0.95, maxHitRatio: 1, gen: genScan},
	{name: "adhoc", opsPerSec: 1700, frozen: true, minHitRatio: 0, maxHitRatio: 0.05, rewritten: true, gen: genAdhoc},
	{name: "ingest", opsPerSec: 85, minHitRatio: 0.95, maxHitRatio: 1, rewritten: true, gen: genIngest},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// opCount is the fixed number of operations a run of the given length
// issues.
func (w *workload) opCount(seconds int) int {
	n := int(w.opsPerSec * float64(seconds))
	if n < 4*numClients {
		n = 4 * numClients
	}
	return n
}

// rngFor derives an independent random stream per purpose from the run
// seed, so the data, the shape pool and the operation order do not
// shift when one of them draws more numbers.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

const (
	rngShapes = iota + 1
	rngOps
	rngWarm
)

const ex11 = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < %d`

func year(rng *rand.Rand) int { return 1994 + rng.Intn(3) }

// dashPool returns the dash shapes, most popular first. The template
// cycles with the rank, so the mix of view kinds and result sizes is the
// same for every seed; the seed picks only the constants.
func dashPool(seed int64) []string {
	rng := rngFor(seed, rngShapes)
	seen := map[string]bool{}
	var pool []string
	for len(pool) < dashShapes {
		var sql string
		switch len(pool) % 4 {
		case 0:
			sql = fmt.Sprintf(`SELECT Cust_Id, SUM(Charge) FROM Calls WHERE Cust_Id = %d GROUP BY Cust_Id`, rng.Intn(numCustomers))
		case 1:
			sql = fmt.Sprintf(ex11, year(rng), 1_000_000+rng.Intn(9_000_000))
		case 2:
			sql = fmt.Sprintf(`SELECT Cust_Id, AVG(Charge) FROM Calls WHERE Cust_Id = %d GROUP BY Cust_Id`, rng.Intn(numCustomers))
		default:
			sql = fmt.Sprintf(`SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d AND Month = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name`, year(rng), 1+rng.Intn(12))
		}
		if !seen[sql] {
			seen[sql] = true
			pool = append(pool, sql)
		}
	}
	return pool
}

// zipfReads draws n reads from the pool, Zipf-skewed by rank. The first
// read of each shape among the even and among the odd stream positions
// is marked for the answer check; on a closed loop those are one per
// client.
func zipfReads(rng *rand.Rand, pool []string, n int) []op {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	seen := make([]map[int]bool, numClients)
	for c := range seen {
		seen[c] = map[int]bool{}
	}
	ops := make([]op, n)
	for i := range ops {
		s := int(z.Uint64())
		c := i % numClients
		ops[i] = op{kind: opRead, sql: pool[s], check: !seen[c][s]}
		seen[c][s] = true
	}
	return ops
}

func genDash(seed int64, n int) []op {
	return zipfReads(rngFor(seed, rngOps), dashPool(seed), n)
}

// scanPool holds the shapes no view answers: joins with string group
// keys, AVG (V1 has no COUNT), and grouping on Day (no view keeps it).
var scanPool = []string{
	`SELECT Plan_Name, AVG(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name`,
	`SELECT Day, COUNT(Charge) FROM Calls GROUP BY Day`,
	`SELECT Plan_Name, Day, COUNT(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Month = 7 GROUP BY Plan_Name, Day`,
	`SELECT Cust_Name, AVG(Charge) FROM Calls, Customer WHERE Calls.Cust_Id = Customer.Cust_Id AND Day <= 7 GROUP BY Cust_Name`,
	`SELECT Area_Code, AVG(Charge) FROM Calls, Customer WHERE Calls.Cust_Id = Customer.Cust_Id AND Month = 2 GROUP BY Area_Code`,
	`SELECT Year, Month, COUNT(Charge), AVG(Charge) FROM Calls WHERE Day > 20 GROUP BY Year, Month`,
}

// genScan cycles through seeded permutations of the scan pool, so every
// shape carries the same share of the traffic whatever the seed.
func genScan(seed int64, n int) []op {
	rng := rngFor(seed, rngOps)
	ops := make([]op, 0, n)
	seen := make([]map[string]bool, numClients)
	for c := range seen {
		seen[c] = map[string]bool{}
	}
	for len(ops) < n {
		for _, j := range rng.Perm(len(scanPool)) {
			if len(ops) == n {
				break
			}
			c := len(ops) % numClients
			ops = append(ops, op{kind: opRead, sql: scanPool[j], check: !seen[c][scanPool[j]]})
			seen[c][scanPool[j]] = true
		}
	}
	return ops
}

// adhocCheckEvery spaces the adhoc reads whose answers are checked: with
// every read a new plan key, checking all of them would cost one direct
// evaluation per request.
const adhocCheckEvery = 97

// adhocRead draws one view-answerable read whose constants come from
// domains wide enough that nearly every request has a new plan key.
func adhocRead(rng *rand.Rand, template int) string {
	switch template {
	case 0:
		lo := rng.Intn(numCustomers)
		return fmt.Sprintf(`SELECT Cust_Id, SUM(Charge) FROM Calls WHERE Cust_Id >= %d AND Cust_Id < %d GROUP BY Cust_Id HAVING SUM(Charge) > %d`, lo, lo+1+rng.Intn(16), rng.Intn(150_000))
	case 1:
		lo := rng.Intn(numCustomers)
		return fmt.Sprintf(`SELECT Cust_Id, AVG(Charge) FROM Calls WHERE Cust_Id >= %d AND Cust_Id < %d GROUP BY Cust_Id HAVING COUNT(Charge) > %d`, lo, lo+1+rng.Intn(16), rng.Intn(150))
	case 2:
		return fmt.Sprintf(ex11, year(rng), rng.Intn(100_000_000))
	default:
		m := 1 + rng.Intn(12)
		return fmt.Sprintf(`SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d AND Month >= %d AND Month <= %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) > %d`, year(rng), m, m+rng.Intn(13-m), rng.Intn(1_000_000))
	}
}

func genAdhoc(seed int64, n int) []op {
	return adhocOps(rngFor(seed, rngOps), n)
}

func adhocOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, t := range rng.Perm(4) {
			if len(ops) == n {
				break
			}
			ops = append(ops, op{kind: opRead, sql: adhocRead(rng, t), check: len(ops)%adhocCheckEvery == 0})
		}
	}
	return ops
}

// genIngest builds one stream per client of three dash reads then one
// write, and interleaves them so op i belongs to client i mod
// numClients. Client c only deletes and updates Call_Ids congruent to c
// modulo numClients and inserts fresh ones of the same class, so every
// delete and update matches exactly one row however the two clients
// interleave. Of every eight writes six are inserts, one a delete and
// one an update: a delete or update scans the whole table, an insert
// does not.
func genIngest(seed int64, n int) []op {
	rng := rngFor(seed, rngOps)
	pool := dashPool(seed)
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	per := (n + numClients - 1) / numClients
	streams := make([][]op, numClients)
	for c := range streams {
		var live []int64
		for id := int64(c); id < numCalls; id += numClients {
			live = append(live, id)
		}
		next := int64(numCalls + c)
		take := func() int64 {
			i := rng.Intn(len(live))
			k := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			return k
		}
		writes := 0
		for len(streams[c]) < per {
			if len(streams[c])%4 != 3 {
				streams[c] = append(streams[c], op{kind: opRead, sql: pool[z.Uint64()]})
				continue
			}
			var w op
			switch writes % 8 {
			case 3:
				w = op{kind: opDelete, key: take()}
			case 7:
				k := live[rng.Intn(len(live))]
				w = op{kind: opUpdate, key: k, set: fmt.Sprintf("Charge = Charge + %d", 1+rng.Intn(100))}
			default:
				w = op{kind: opInsert, key: next, row: []string{
					fmt.Sprintf("i:%d", next),
					fmt.Sprintf("i:%d", rng.Intn(numCustomers)),
					fmt.Sprintf("i:%d", rng.Intn(numPlans)),
					fmt.Sprintf("i:%d", 1+rng.Intn(28)),
					fmt.Sprintf("i:%d", 1+rng.Intn(12)),
					fmt.Sprintf("i:%d", year(rng)),
					fmt.Sprintf("i:%d", 1+rng.Intn(2000)),
				}}
				live = append(live, next)
				next += numClients
			}
			writes++
			streams[c] = append(streams[c], w)
		}
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, streams[i%numClients][i/numClients])
	}
	return ops
}

// warmOps are the requests issued during set-up: every dash shape for
// the workloads that read them, every scan shape, or a separately
// seeded adhoc batch. None of them is timed.
func warmOps(w *workload, seed int64) []op {
	switch w.name {
	case "scan":
		return genScan(seed, len(scanPool))
	case "adhoc":
		return adhocOps(rngFor(seed, rngWarm), 64)
	default:
		var ops []op
		for _, sql := range dashPool(seed) {
			ops = append(ops, op{kind: opRead, sql: sql})
		}
		return ops
	}
}

// render writes the operation stream as text, one operation a line; two
// streams are the same input exactly when their renderings are equal.
func render(ops []op) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "%d %s check=%t key=%d set=%q row=%q sql=%q\n", i, o.kind, o.check, o.key, o.set, o.row, o.sql)
	}
	return b.String()
}

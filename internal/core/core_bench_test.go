package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ccs/internal/constraint"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

// busySkew is max over mean of the non-zero per-worker busy times.
func busySkew(busy []float64) float64 {
	var sum, max float64
	n := 0
	for _, s := range busy {
		if s <= 0 {
			continue
		}
		sum += s
		n++
		if s > max {
			max = s
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(n))
}

// benchDB caches a moderately sized planted database across benchmarks.
var benchDB *dataset.DB

func getBenchDB(b *testing.B) *dataset.DB {
	b.Helper()
	if benchDB == nil {
		benchDB = corrDB(rand.New(rand.NewSource(1)), 30, 5000)
	}
	return benchDB
}

func benchParams() Params {
	return Params{Alpha: 0.95, CellSupportFrac: 0.05, CTFraction: 0.25, MaxLevel: 4}
}

func benchQuery() *constraint.Conjunction {
	return constraint.And(
		constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 15),
		constraint.NewAggregate(constraint.AggSum, constraint.Price, constraint.LE, 40),
	)
}

func BenchmarkBMS(b *testing.B) {
	db := getBenchDB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMS(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMSPlus(b *testing.B) {
	db := getBenchDB(b)
	q := benchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlus(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMSPlusPlus(b *testing.B) {
	db := getBenchDB(b)
	q := benchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMSStar(b *testing.B) {
	db := getBenchDB(b)
	q := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSStar(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMSStarStar(b *testing.B) {
	db := getBenchDB(b)
	q := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSStarStar(q, StarStarOptions{PushMonotoneSuccinct: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallelWorkers is the worker count of BenchmarkAlgo's parallel
// mode: GOMAXPROCS on a real multi-core runner, and a fixed 4 when
// GOMAXPROCS is 1 so the sharded engine is still exercised (and its
// overhead visible) on single-core machines.
func benchParallelWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 4
}

// benchSerialNs records each algorithm's serial per-op time within one
// BenchmarkAlgo invocation so the parallel sub-benchmark can report its
// speedup. Sub-benchmarks run in declaration order (serial before
// parallel), never concurrently.
var benchSerialNs = map[string]float64{}

// BenchmarkAlgo runs every mining algorithm end to end over a shared
// bitmap counter — the configuration ccsserve uses per request — in two
// modes: serial (Workers=1, the exact old path) and parallel
// (Workers=GOMAXPROCS, the sharded level engine). cmd/ccsperf tracks the
// suite in BENCH_core.json; the parallel lines carry "workers" and
// "speedup" metrics (speedup = serial ns/op of the same run ÷ parallel
// ns/op, so it is meaningful only on multi-core runners).
func BenchmarkAlgo(b *testing.B) {
	db := getBenchDB(b)
	q := benchQuery()
	qMin := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	cases := []struct {
		name string
		run  func(m *Miner) error
	}{
		{"bms", func(m *Miner) error { _, err := m.BMS(); return err }},
		{"bms-plus", func(m *Miner) error { _, err := m.BMSPlus(q); return err }},
		{"bms-plus-plus", func(m *Miner) error { _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); return err }},
		{"bms-star", func(m *Miner) error { _, err := m.BMSStar(qMin); return err }},
		{"bms-star-star", func(m *Miner) error {
			_, err := m.BMSStarStar(qMin, StarStarOptions{PushMonotoneSuccinct: true})
			return err
		}},
		{"all-valid", func(m *Miner) error { _, err := m.AllValid(q); return err }},
	}
	for _, c := range cases {
		for _, mode := range []struct {
			name    string
			workers int
		}{
			{"serial", 1},
			{"parallel", benchParallelWorkers()},
		} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				cc := counting.NewBitmapCounter(db)
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					m, err := New(db, benchParams(), WithCounter(cc), WithWorkers(mode.workers))
					if err != nil {
						b.Fatal(err)
					}
					if err := c.run(m); err != nil {
						b.Fatal(err)
					}
				}
				perOp := float64(time.Since(start).Nanoseconds()) / float64(b.N)
				b.StopTimer()
				b.ReportMetric(float64(mode.workers), "workers")
				if mode.name == "serial" {
					if prev, ok := benchSerialNs[c.name]; !ok || perOp < prev {
						benchSerialNs[c.name] = perOp
					}
				} else if serial, ok := benchSerialNs[c.name]; ok && perOp > 0 {
					b.ReportMetric(serial/perOp, "speedup")
					// One extra profiled run outside the timer attributes the
					// parallel engine's time: stall-frac is the share of wall
					// the evaluator spent blocked on shard hand-off, shard-skew
					// is max/mean worker busy (1.0 = perfectly balanced). These
					// land in BENCH_core.json so a speedup regression names its
					// phase, not just its magnitude.
					prof := obs.NewProfile(c.name)
					m, err := New(db, benchParams(), WithCounter(cc), WithWorkers(mode.workers), WithProfile(prof))
					if err != nil {
						b.Fatal(err)
					}
					if err := c.run(m); err != nil {
						b.Fatal(err)
					}
					rec := prof.Record()
					if rec.WallSeconds > 0 {
						b.ReportMetric(rec.Phases[obs.PhaseStall].Seconds/rec.WallSeconds, "stall-frac")
					}
					b.ReportMetric(busySkew(rec.WorkerBusySeconds), "shard-skew")
				}
			})
		}
	}
	// Brute refuses catalogs past 24 items, so it gets its own small DB.
	b.Run("brute", func(b *testing.B) {
		small := corrDB(rand.New(rand.NewSource(2)), 15, 2000)
		cc := counting.NewBitmapCounter(small)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := New(small, benchParams(), WithCounter(cc))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Brute(q, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largeDBs caches the large-lattice corpora (one per transaction count) so
// every sub-benchmark shares one generation pass.
var largeDBs = map[int]*dataset.DB{}

func getLargeDB(b *testing.B, numTx int) *dataset.DB {
	b.Helper()
	if largeDBs[numTx] == nil {
		db, err := gen.Lattice(gen.DefaultLattice(numTx, 1))
		if err != nil {
			b.Fatal(err)
		}
		largeDBs[numTx] = db
	}
	return largeDBs[numTx]
}

// largeTxCount picks the corpus size: one million transactions in a full
// run, a tenth of that under -short so `make bench` stays CI-sized. The
// count is baked into every benchmark name, so short and full runs never
// name-match in a baseline comparison.
func largeTxCount() int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

// largeParams deepens MaxLevel to 6 and raises the cell-support threshold:
// at 10^5-10^6 transactions the chi-square test flags nearly any pair, so
// the support threshold is what keeps the candidate frontier to the
// corpus's correlated blocks plus the Zipf head instead of an
// every-frequent-subset explosion.
func largeParams() Params {
	return Params{Alpha: 0.95, CellSupportFrac: 0.15, CTFraction: 0.25, MaxLevel: 6}
}

// largeSerialNs mirrors benchSerialNs for the large corpus, keyed by
// algorithm and transaction count.
var largeSerialNs = map[string]float64{}

// BenchmarkAlgoLarge is BenchmarkAlgo on the large-lattice corpus (ccsgen
// method 3): Zipfian singles plus dense correlated blocks whose subsets
// stay correlated deep into the lattice, at a scale where shard counting
// cost dominates hand-off overhead. Parallel modes pin worker counts 4 and
// 8 — rather than GOMAXPROCS — so BENCH_core.json records speedups
// comparable across machines; ccsperf -core-check holds the w8 speedup to
// a floor once a multi-core baseline commits one at or above it.
func BenchmarkAlgoLarge(b *testing.B) {
	numTx := largeTxCount()
	db := getLargeDB(b, numTx)
	q := benchQuery()
	qMin := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	cases := []struct {
		name string
		run  func(m *Miner) error
	}{
		{"bms", func(m *Miner) error { _, err := m.BMS(); return err }},
		{"bms-plus", func(m *Miner) error { _, err := m.BMSPlus(q); return err }},
		{"bms-plus-plus", func(m *Miner) error { _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); return err }},
		{"bms-star", func(m *Miner) error { _, err := m.BMSStar(qMin); return err }},
		{"bms-star-star", func(m *Miner) error {
			_, err := m.BMSStarStar(qMin, StarStarOptions{PushMonotoneSuccinct: true})
			return err
		}},
		{"all-valid", func(m *Miner) error { _, err := m.AllValid(q); return err }},
	}
	for _, c := range cases {
		for _, mode := range []struct {
			name    string
			workers int
		}{
			{"serial", 1},
			{"parallel-w4", 4},
			{"parallel-w8", 8},
		} {
			key := fmt.Sprintf("%s/tx=%d", c.name, numTx)
			b.Run(key+"/"+mode.name, func(b *testing.B) {
				cc := counting.NewBitmapCounter(db)
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					m, err := New(db, largeParams(), WithCounter(cc), WithWorkers(mode.workers))
					if err != nil {
						b.Fatal(err)
					}
					if err := c.run(m); err != nil {
						b.Fatal(err)
					}
				}
				perOp := float64(time.Since(start).Nanoseconds()) / float64(b.N)
				b.StopTimer()
				b.ReportMetric(float64(mode.workers), "workers")
				if mode.workers == 1 {
					if prev, ok := largeSerialNs[key]; !ok || perOp < prev {
						largeSerialNs[key] = perOp
					}
				} else if serial, ok := largeSerialNs[key]; ok && perOp > 0 {
					b.ReportMetric(serial/perOp, "speedup")
					// One profiled run outside the timer attributes the engine's
					// time, as in BenchmarkAlgo: stall-frac is the evaluator's
					// blocked share of wall, shard-skew max/mean worker busy.
					prof := obs.NewProfile(c.name)
					m, err := New(db, largeParams(), WithCounter(cc),
						WithWorkers(mode.workers), WithProfile(prof))
					if err != nil {
						b.Fatal(err)
					}
					if err := c.run(m); err != nil {
						b.Fatal(err)
					}
					rec := prof.Record()
					if rec.WallSeconds > 0 {
						b.ReportMetric(rec.Phases[obs.PhaseStall].Seconds/rec.WallSeconds, "stall-frac")
					}
					b.ReportMetric(busySkew(rec.WorkerBusySeconds), "shard-skew")
				}
			})
		}
	}
}

// BenchmarkAblationScanVsBitmap contrasts the two counting engines on the
// same BMS++ run — the design choice DESIGN.md calls out.
func BenchmarkAblationScanCounter(b *testing.B) {
	db := getBenchDB(b)
	q := benchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams(), WithCounter(counting.NewScanCounter(db)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBitmapCounter(b *testing.B) {
	db := getBenchDB(b)
	q := benchQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams(), WithCounter(counting.NewBitmapCounter(db)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWitnessPush measures the paper's Modification I/II
// against the exact mode on a monotone succinct constraint.
func BenchmarkAblationWitnessPushOn(b *testing.B) {
	db := getBenchDB(b)
	q := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{PushMonotoneSuccinct: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWitnessPushOff(b *testing.B) {
	db := getBenchDB(b)
	q := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(db, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgoSparse mines the long-tail corpus end to end with the
// vertical backend forced each way. Per-op includes the index build — the
// miner constructs a fresh counter per iteration — so B/op tracks what a
// service pays per mine on a sparse tenant. The catalog is shrunk from the
// generator's 4000-item default and the walk stops at pairs to keep each
// op benchmark-sized; that pushes the density up near the auto cutoff,
// which is why both backends are forced explicitly here — the full-catalog
// sparse regime is the counting suite's BenchmarkCountSparse. The
// hard bytes floor gates the counting suite's BenchmarkCountSparse; this
// line records the end-to-end consequence.
func BenchmarkAlgoSparse(b *testing.B) {
	cfg := gen.DefaultSparse(10000, 1)
	cfg.NumItems = 100
	cfg.HeadItems = 15
	db, err := gen.Sparse(cfg)
	if err != nil {
		b.Fatal(err)
	}
	params := Params{Alpha: 0.95, CellSupport: 25, CTFraction: 0.25, MaxLevel: 2}
	for _, be := range []tidlist.Backend{tidlist.BackendDense, tidlist.BackendCompressed} {
		b.Run("bms/backend="+string(be), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cc := counting.NewBitmapCounterBackend(db, be)
				m, err := New(db, params, WithCounter(cc))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.BMS(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

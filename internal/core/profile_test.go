package core

import (
	"math/rand"
	"sync"
	"testing"

	"ccs/internal/constraint"
	"ccs/internal/counting"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

// profiledMine runs one BMS++ mine with a fresh profile at the given
// worker count and returns the record plus the result.
func profiledMine(t testing.TB, workers int) (*obs.ProfileRecord, *Result) {
	t.Helper()
	db := corrDB(rand.New(rand.NewSource(9)), 24, 3000)
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 20))
	cc := counting.NewBitmapCounter(db)
	prof := obs.NewProfile("bms++")
	m, err := New(db, testParams(), WithCounter(cc), WithWorkers(workers), WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.BMSPlusPlus(q, PlusPlusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return prof.Record(), res
}

// TestProfileDeterministicAcrossWorkers is the determinism check: a
// workers=1 and a workers=8 profile of the same query must agree on
// everything the lattice determines — candidates, kept sets, cells charged,
// level structure — even though the timing attribution differs.
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	rec1, res1 := profiledMine(t, 1)
	rec8, res8 := profiledMine(t, 8)

	if !sameSets(res1.Answers, res8.Answers) {
		t.Fatalf("answers differ across worker counts")
	}
	if rec1.Candidates != rec8.Candidates {
		t.Errorf("candidates: workers=1 %d, workers=8 %d", rec1.Candidates, rec8.Candidates)
	}
	if rec1.Kept != rec8.Kept {
		t.Errorf("kept: workers=1 %d, workers=8 %d", rec1.Kept, rec8.Kept)
	}
	if rec1.Cells != rec8.Cells {
		t.Errorf("cells: workers=1 %d, workers=8 %d", rec1.Cells, rec8.Cells)
	}
	// Shards never split a prefix run, so the kernel's work is the same
	// however the level is sharded.
	if rec1.Intersections != rec8.Intersections || rec1.Materialized != rec8.Materialized {
		t.Errorf("work: workers=1 %d/%d, workers=8 %d/%d intersections/materialized",
			rec1.Intersections, rec1.Materialized, rec8.Intersections, rec8.Materialized)
	}
	if len(rec1.Levels) != len(rec8.Levels) {
		t.Fatalf("level count: workers=1 %d, workers=8 %d", len(rec1.Levels), len(rec8.Levels))
	}
	for i := range rec1.Levels {
		a, b := rec1.Levels[i], rec8.Levels[i]
		if a.Phase != b.Phase || a.Level != b.Level || a.Candidates != b.Candidates || a.Kept != b.Kept || a.Cells != b.Cells {
			t.Errorf("level %d disagrees: serial %+v parallel %+v", i, a, b)
		}
	}
	// the shard detail must cover the same counting work in both runs
	cellsOf := func(rec *obs.ProfileRecord) (total int64) {
		for _, lv := range rec.Levels {
			for _, sh := range lv.Shards {
				total += sh.Cells
			}
		}
		return
	}
	if c1, c8 := cellsOf(rec1), cellsOf(rec8); c1 != c8 {
		t.Errorf("shard cells: workers=1 %d, workers=8 %d", c1, c8)
	}
	if rec1.Workers != 1 || rec8.Workers != 8 {
		t.Errorf("recorded workers = %d / %d, want 1 / 8", rec1.Workers, rec8.Workers)
	}
}

// TestProfilePhaseCoverage checks the profiler accounts for the run: the
// named phases plus the residual equal the wall clock, and the parallel
// run's shard stats carry real work.
func TestProfilePhaseCoverage(t *testing.T) {
	rec, _ := profiledMine(t, 8)
	if rec.WallSeconds <= 0 {
		t.Fatalf("wall = %g", rec.WallSeconds)
	}
	var sum float64
	for _, ph := range rec.Phases {
		sum += ph.Seconds
	}
	// Record() computes "other" as the exact residual, so the sum may only
	// undershoot when clocks overlap; allow 1% either way.
	if sum < rec.WallSeconds*0.99 || sum > rec.WallSeconds*1.01 {
		t.Errorf("phases sum to %g, wall is %g", sum, rec.WallSeconds)
	}
	if _, ok := rec.Phases[obs.PhaseCandgen]; !ok {
		t.Error("no candgen phase recorded")
	}
	if rec.Shards == 0 || rec.CountWorkSeconds <= 0 {
		t.Errorf("no shard work recorded: shards=%d work=%g", rec.Shards, rec.CountWorkSeconds)
	}
	var busy float64
	for _, b := range rec.WorkerBusySeconds {
		busy += b
	}
	// worker busy-seconds and per-shard seconds are two views of the same
	// counting work
	if busy <= 0 {
		t.Fatalf("no worker busy time: %v", rec.WorkerBusySeconds)
	}
	if diff := busy - rec.CountWorkSeconds; diff < -0.001 || diff > 0.001 {
		t.Errorf("worker busy %gs vs shard work %gs", busy, rec.CountWorkSeconds)
	}
}

// TestProfiledMinesConcurrent is the race hammer: 8 goroutines run
// profiled parallel mines at once (each mine itself fans out workers), so
// the -race suite sees the profiler's shared state under real contention.
func TestProfiledMinesConcurrent(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(10)), 20, 1500)
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 20))
	var wg sync.WaitGroup
	recs := make([]*obs.ProfileRecord, 8)
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prof := obs.NewProfile("bms++")
			m, err := New(db, testParams(), WithWorkers(4), WithProfile(prof))
			if err != nil {
				errs[g] = err
				return
			}
			if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
				errs[g] = err
				return
			}
			recs[g] = prof.Record()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("mine %d: %v", g, err)
		}
	}
	// every profile is independent, so they all see the same lattice
	for g := 1; g < 8; g++ {
		if recs[g].Candidates != recs[0].Candidates || recs[g].Cells != recs[0].Cells {
			t.Errorf("mine %d profile disagrees: %d/%d vs %d/%d",
				g, recs[g].Candidates, recs[g].Cells, recs[0].Candidates, recs[0].Cells)
		}
	}
}

// TestProfileOffUnchanged checks mining without WithProfile yields the
// exact same answers and stats as a profiled run — the profiler observes,
// never steers.
func TestProfileOffUnchanged(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(9)), 24, 3000)
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 20))
	mine := func(opts ...Option) *Result {
		m, err := New(db, testParams(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.BMSPlusPlus(q, PlusPlusOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := mine(WithWorkers(4))
	profiled := mine(WithWorkers(4), WithProfile(obs.NewProfile("bms++")))
	if !sameSets(plain.Answers, profiled.Answers) {
		t.Fatal("profiling changed the answers")
	}
	if plain.Stats.Candidates != profiled.Stats.Candidates ||
		plain.Stats.CellsCounted != profiled.Stats.CellsCounted ||
		plain.Stats.ChiSquaredTests != profiled.Stats.ChiSquaredTests {
		t.Fatalf("profiling changed the stats: %+v vs %+v", plain.Stats, profiled.Stats)
	}
}

// TestProfileShardCostIsWork checks the scheduler's price against the
// kernel's exact work on a real mine: on the dense backend every column
// costs the same number of words, so each profiled shard of a k ≥ 2 level
// must carry Cost = Intersections × words, at one worker and at several.
func TestProfileShardCostIsWork(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(9)), 24, 3000)
	words := int64(db.NumTx()+63) / 64
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 20))
	for _, workers := range []int{1, 4} {
		prof := obs.NewProfile("bms++")
		cc := counting.NewBitmapCounterBackend(db, tidlist.BackendDense)
		m, err := New(db, testParams(), WithCounter(cc), WithWorkers(workers), WithProfile(prof))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
			t.Fatal(err)
		}
		rec := prof.Record()
		checked := 0
		for _, lv := range rec.Levels {
			if lv.Level < 2 {
				continue
			}
			for i, sh := range lv.Shards {
				if sh.Cost != sh.Intersections*words {
					t.Errorf("workers=%d level %d shard %d: cost %d, intersections %d × %d words = %d",
						workers, lv.Level, i, sh.Cost, sh.Intersections, words, sh.Intersections*words)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("workers=%d: no k>=2 shard profiled; the check is vacuous", workers)
		}
		if rec.Intersections == 0 || rec.Materialized == 0 || rec.Materialized > rec.Intersections {
			t.Errorf("workers=%d: implausible work totals %d intersections, %d materialized",
				workers, rec.Intersections, rec.Materialized)
		}
	}
}

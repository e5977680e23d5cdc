package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ccs/internal/constraint"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/testutil"
)

// wideDB builds a database wide enough (many items) that every algorithm's
// level-2 batch clears minParallelCands and the sharded path actually runs.
func wideDB(r *rand.Rand, nItems, nTx int) *dataset.DB {
	return corrDB(r, nItems, nTx)
}

// runAlgo dispatches one named algorithm on m. The six names cover every
// level-wise loop the parallel engine serves.
func runAlgo(t testing.TB, m *Miner, algo string, q *constraint.Conjunction) *Result {
	t.Helper()
	var res *Result
	var err error
	switch algo {
	case "bms":
		res, err = m.BMS()
	case "bms+":
		res, err = m.BMSPlus(q)
	case "bms++":
		res, err = m.BMSPlusPlus(q, PlusPlusOptions{})
	case "bms*":
		res, err = m.BMSStar(q)
	case "bms**":
		res, err = m.BMSStarStar(q, StarStarOptions{})
	case "all":
		res, err = m.AllValid(q)
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res
}

var allAlgos = []string{"bms", "bms+", "bms++", "bms*", "bms**", "all"}

// statsNoDurations strips the wall-clock field so Stats compare by work
// counters only.
func statsNoDurations(s Stats) Stats {
	s.LevelDurations = nil
	return s
}

// detWorkerCounts are the parallel worker counts the determinism suite
// pins against the serial run: the original power-of-two gate plus
// non-power-of-two counts (3, 7) that exercise uneven shard-to-worker
// assignment, and a count (32) far above any level's shard count so the
// workers>shards clamp path runs too.
var detWorkerCounts = []int{3, 7, 8, 32}

// TestWorkersDeterminism is the acceptance gate of the parallel engine:
// for every algorithm, over randomized datasets and constraint mixes, the
// mined answers and every Stats counter are identical at Workers=1 and
// every parallel worker count. Level durations (wall clock) are the only
// permitted difference.
func TestWorkersDeterminism(t *testing.T) {
	testutil.CheckGoroutines(t)
	queries := queryPool()
	qNames := []string{"empty", "maxLE", "sumLE", "mixed", "disjoint", "mono-nonsucc"}
	for seed := int64(1); seed <= 4; seed++ {
		db := wideDB(rand.New(rand.NewSource(seed)), 12, 300)
		for _, algo := range allAlgos {
			for _, qn := range qNames {
				q := queries[qn]
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, algo, qn), func(t *testing.T) {
					serial, err := New(db, testParams(), WithWorkers(1))
					if err != nil {
						t.Fatal(err)
					}
					want := runAlgo(t, serial, algo, q)
					for _, workers := range detWorkerCounts {
						par, err := New(db, testParams(), WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						got := runAlgo(t, par, algo, q)
						if !sameSets(want.Answers, got.Answers) {
							t.Errorf("answers differ:\n workers=1: %s\n workers=%d: %s",
								setsString(want.Answers), workers, setsString(got.Answers))
						}
						if ws, gs := statsNoDurations(want.Stats), statsNoDurations(got.Stats); !reflect.DeepEqual(ws, gs) {
							t.Errorf("stats differ:\n workers=1: %+v\n workers=%d: %+v", ws, workers, gs)
						}
						if want.Truncated != got.Truncated {
							t.Errorf("truncated differ: workers=1 %v, workers=%d %v", want.Truncated, workers, got.Truncated)
						}
						if len(want.Stats.LevelDurations) != len(got.Stats.LevelDurations) {
							t.Errorf("level count differ: workers=1 %d, workers=%d %d",
								len(want.Stats.LevelDurations), workers, len(got.Stats.LevelDurations))
						}
					}
				})
			}
		}
	}
}

// TestWorkersBudgetTruncationDeterminism checks that budget truncation
// trips at the same level with the same cause at every worker count: the
// cell budget is settled for the whole level before any shard is
// dispatched, exactly as the serial batch charge.
func TestWorkersBudgetTruncationDeterminism(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := wideDB(rand.New(rand.NewSource(7)), 12, 300)
	q := queryPool()["maxLE"]
	for _, algo := range allAlgos {
		truncations := 0
		for _, budget := range []Budget{
			{MaxCells: 200},
			{MaxCells: 1000},
			{MaxCandidates: 10},
		} {
			t.Run(fmt.Sprintf("%s/cells%d-cands%d", algo, budget.MaxCells, budget.MaxCandidates), func(t *testing.T) {
				serial, err := New(db, testParams(), WithWorkers(1), WithBudget(budget))
				if err != nil {
					t.Fatal(err)
				}
				par, err := New(db, testParams(), WithWorkers(8), WithBudget(budget))
				if err != nil {
					t.Fatal(err)
				}
				want := runAlgo(t, serial, algo, q)
				got := runAlgo(t, par, algo, q)
				if want.Truncated {
					truncations++
				}
				if want.Truncated != got.Truncated {
					t.Fatalf("truncated differ: workers=1 %v, workers=8 %v", want.Truncated, got.Truncated)
				}
				if want.Truncated {
					if wc, gc := want.Cause.Error(), got.Cause.Error(); wc != gc {
						t.Errorf("causes differ:\n workers=1: %s\n workers=8: %s", wc, gc)
					}
				}
				if !sameSets(want.Answers, got.Answers) {
					t.Errorf("answers differ:\n workers=1: %s\n workers=8: %s",
						setsString(want.Answers), setsString(got.Answers))
				}
				if ws, gs := statsNoDurations(want.Stats), statsNoDurations(got.Stats); !reflect.DeepEqual(ws, gs) {
					t.Errorf("stats differ:\n workers=1: %+v\n workers=8: %+v", ws, gs)
				}
			})
		}
		if truncations == 0 {
			t.Errorf("no budget truncated %s; tighten the test budgets", algo)
		}
	}
}

// TestParallelMinerConcurrentRuns hammers one shared Miner — bitmap
// counter, 4-way level engine — from 8 goroutines. Run under -race this is
// the concurrency gate for the whole counting + level-engine stack; every
// goroutine must also see exactly the serial answers.
func TestParallelMinerConcurrentRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := wideDB(rand.New(rand.NewSource(11)), 12, 300)
	q := queryPool()["maxLE"]
	cc := counting.NewBitmapCounter(db)
	m, err := New(db, testParams(), WithCounter(cc), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(db, testParams(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]*Result{}
	for _, algo := range allAlgos {
		want[algo] = runAlgo(t, serial, algo, q)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		algo := allAlgos[g%len(allAlgos)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := func() (res *Result, err error) {
				switch algo {
				case "bms":
					return m.BMS()
				case "bms+":
					return m.BMSPlus(q)
				case "bms++":
					return m.BMSPlusPlus(q, PlusPlusOptions{})
				case "bms*":
					return m.BMSStar(q)
				case "bms**":
					return m.BMSStarStar(q, StarStarOptions{})
				default:
					return m.AllValid(q)
				}
			}()
			if err != nil {
				errs <- fmt.Errorf("%s: %v", algo, err)
				return
			}
			if !sameSets(res.Answers, want[algo].Answers) {
				errs <- fmt.Errorf("%s: concurrent answers diverge from serial", algo)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanShards checks the schedule invariants the pipeline relies on:
// contiguous cover of the batch, boundaries aligned to prefix runs, costs
// that sum to the plan total, and a dispatch order that is a
// costliest-first permutation of the shards.
func TestPlanShards(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		sets := make([]itemset.Set, 0, n)
		for i := 0; i < n; i++ {
			k := 2 + r.Intn(3)
			items := make([]itemset.Item, k)
			for j := range items {
				items[j] = itemset.Item(r.Intn(20))
			}
			sets = append(sets, itemset.New(items...))
		}
		// dedup via registry, then canonical order — the engine's contract
		reg := itemset.NewRegistry()
		uniq := sets[:0]
		for _, s := range sets {
			if reg.Add(s) {
				uniq = append(uniq, s)
			}
		}
		sets = uniq
		itemset.SortSets(sets)
		workers := 1 + r.Intn(8)
		numTx := 1 + r.Intn(1<<20)
		plan := counting.PlanShards(sets, numTx, workers)
		shards := plan.Shards
		if len(shards) == 0 {
			t.Fatalf("no shards for %d sets", len(sets))
		}
		if shards[0].Span[0] != 0 || shards[len(shards)-1].Span[1] != len(sets) {
			t.Fatalf("shards do not cover batch: %v over %d", shards, len(sets))
		}
		var costSum int64
		for i, sh := range shards {
			if i > 0 && sh.Span[0] != shards[i-1].Span[1] {
				t.Fatalf("shards not contiguous: %v", shards)
			}
			if sh.Span[0] >= sh.Span[1] {
				t.Fatalf("empty shard %d: %v", i, sh)
			}
			if sh.Cost < 1 {
				t.Fatalf("shard %d has cost %d; every nonempty shard costs at least 1", i, sh.Cost)
			}
			costSum += sh.Cost
		}
		if costSum != plan.Total {
			t.Fatalf("shard costs sum to %d, plan total %d", costSum, plan.Total)
		}
		if plan.Total < counting.MinShardCost && len(shards) != 1 {
			t.Fatalf("batch below MinShardCost split into %d shards", len(shards))
		}
		// every shard boundary must be a prefix-run boundary
		runBounds := map[int]bool{0: true}
		for _, run := range counting.PrefixRuns(sets) {
			runBounds[run[1]] = true
		}
		for _, sh := range shards {
			if !runBounds[sh.Span[1]] {
				t.Fatalf("shard end %d splits a prefix run", sh.Span[1])
			}
		}
		// Order is a costliest-first permutation.
		if len(plan.Order) != len(shards) {
			t.Fatalf("order has %d entries for %d shards", len(plan.Order), len(shards))
		}
		seen := make(map[int]bool, len(plan.Order))
		for i, si := range plan.Order {
			if si < 0 || si >= len(shards) || seen[si] {
				t.Fatalf("order %v is not a permutation of shards", plan.Order)
			}
			seen[si] = true
			if i > 0 && shards[plan.Order[i-1]].Cost < shards[si].Cost {
				t.Fatalf("order %v not costliest-first at %d", plan.Order, i)
			}
		}
	}
}

// TestEffectiveWorkers pins the knob semantics: 0 = GOMAXPROCS, negatives
// clamp to serial.
func TestEffectiveWorkers(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(1)), 5, 60)
	for _, tc := range []struct{ in, min int }{{1, 1}, {4, 4}, {-3, 1}, {0, 1}} {
		m, err := New(db, testParams(), WithWorkers(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		got := m.effectiveWorkers()
		if tc.in > 0 && got != tc.in {
			t.Errorf("WithWorkers(%d).effectiveWorkers() = %d", tc.in, got)
		}
		if got < tc.min {
			t.Errorf("WithWorkers(%d).effectiveWorkers() = %d, below %d", tc.in, got, tc.min)
		}
	}
}

// TestExtendAnyMatchesNaive differentially checks the bitmask rewrite of
// extendAny against a straightforward reimplementation.
func TestExtendAnyMatchesNaive(t *testing.T) {
	naive := func(bases []itemset.Set, pool []itemset.Item) []itemset.Set {
		seen := itemset.NewRegistry()
		var out []itemset.Set
		for _, b := range bases {
			for _, x := range pool {
				if b.Contains(x) {
					continue
				}
				if c := b.With(x); seen.Add(c) {
					out = append(out, c)
				}
			}
		}
		itemset.SortSets(out)
		return out
	}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		var bases []itemset.Set
		reg := itemset.NewRegistry()
		for i := 0; i < r.Intn(12); i++ {
			k := 2 + r.Intn(3)
			items := make([]itemset.Item, k)
			for j := range items {
				items[j] = itemset.Item(r.Intn(30))
			}
			if s := itemset.New(items...); reg.Add(s) {
				bases = append(bases, s)
			}
		}
		var pool []itemset.Item
		for j := 0; j < 30; j++ {
			if r.Intn(2) == 0 {
				pool = append(pool, itemset.Item(j))
			}
		}
		want := naive(bases, pool)
		got := extendAny(bases, pool)
		if !sameSets(want, got) {
			t.Fatalf("trial %d: extendAny diverges\n want %s\n got  %s",
				trial, setsString(want), setsString(got))
		}
	}
}

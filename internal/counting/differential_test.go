package counting

import (
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/contingency"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// engines returns one instance of every counting engine over db, keyed by
// name. ScanCounter is the reference the others must match byte for byte.
// Every vertical engine appears twice — once forced onto the dense backend,
// once onto the compressed one — so the container kernels are held to the
// same byte-for-byte standard as the word loops they replace.
func engines(db *dataset.DB) map[string]Counter {
	z := tidlist.BackendCompressed
	return map[string]Counter{
		"scan":       NewScanCounter(db),
		"bitmap":     NewBitmapCounterBackend(db, tidlist.BackendDense),
		"bitmap-z":   NewBitmapCounterBackend(db, z),
		"parallel":   NewParallelCounter(db, 4),
		"parallel-z": NewParallelCounterBackend(db, 4, z),
	}
}

// checkBatch runs one batch through every engine and fails on any cell
// diverging from the scan reference.
func checkBatch(t *testing.T, engs map[string]Counter, batch []itemset.Set, tag string) {
	t.Helper()
	want, err := engs["scan"].CountTables(batch)
	if err != nil {
		t.Fatalf("%s: scan: %v", tag, err)
	}
	for name, c := range engs {
		if name == "scan" {
			continue
		}
		got, err := c.CountTables(batch)
		if err != nil {
			t.Fatalf("%s: %s: %v", tag, name, err)
		}
		for i := range batch {
			if !tablesEqual(want[i], got[i]) {
				t.Fatalf("%s: %s diverges on %v: got %v, want %v",
					tag, name, batch[i], got[i].Cells, want[i].Cells)
			}
		}
	}
}

func tablesEqual(a, b *contingency.Table) bool {
	if a.N != b.N || len(a.Cells) != len(b.Cells) || !a.Items.Equal(b.Items) {
		return false
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			return false
		}
	}
	return true
}

// TestDifferentialRandomBatches drives random single batches through every
// engine.
func TestDifferentialRandomBatches(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 10, 64+r.Intn(70)) // crosses the 64/128-bit word boundaries
		engs := engines(db)
		for batchNo := 0; batchNo < 4; batchNo++ {
			var batch []itemset.Set
			for i := 0; i < 6; i++ {
				k := r.Intn(5) + 1
				var items []itemset.Item
				for len(itemset.New(items...)) < k {
					items = append(items, itemset.Item(r.Intn(10)))
				}
				batch = append(batch, itemset.New(items...))
			}
			itemset.SortSets(batch)
			checkBatch(t, engs, batch, fmt.Sprintf("seed %d batch %d", seed, batchNo))
		}
	}
}

// TestDifferentialCrossLevel mimics the miner's level-wise walk: level-k
// batches generated by the Apriori join of the previous level, issued to
// the same engine instances, so every level holds prefix runs of several
// members and the engines' reused scratch crosses levels.
func TestDifferentialCrossLevel(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := randomDB(r, 12, 100)
	engs := engines(db)

	var level []itemset.Set
	for i := 0; i < 12; i++ {
		level = append(level, itemset.New(itemset.Item(i)))
	}
	for depth := 2; depth <= 5 && len(level) > 0; depth++ {
		cands := itemset.Join(level)
		if len(cands) > 60 {
			cands = cands[:60]
		}
		itemset.SortSets(cands)
		checkBatch(t, engs, cands, fmt.Sprintf("level %d", depth))
		level = cands
	}
}

// TestDifferentialRecount re-counts the same batch twice on one bitmap
// engine: the second pass reuses the first pass's scratch lists and must
// still match the scan reference.
func TestDifferentialRecount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 8, 90)
	scan := NewScanCounter(db)
	bm := NewBitmapCounter(db)
	batch := []itemset.Set{
		itemset.New(0, 1, 2),
		itemset.New(0, 1, 3),
		itemset.New(0, 1, 4),
		itemset.New(2, 3, 5, 6),
	}
	want, err := scan.CountTables(batch)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := bm.CountTables(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if !tablesEqual(want[i], got[i]) {
				t.Fatalf("pass %d: %v: got %v, want %v", pass, batch[i], got[i].Cells, want[i].Cells)
			}
		}
	}
}

// TestReleaseCacheEmptiesAndStaysUsable checks that ReleaseCache, kept for
// the end-to-end benchmark's traced replay, leaves the counter usable.
func TestReleaseCacheEmptiesAndStaysUsable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 6, 50)
	c := NewCachedBitmapCounterBackend(db, 1<<20, tidlist.BackendAuto)
	batch := []itemset.Set{itemset.New(0, 1, 2), itemset.New(0, 1, 3)}
	if _, err := c.CountTables(batch); err != nil {
		t.Fatal(err)
	}
	c.ReleaseCache()
	got, err := c.CountTables(batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewScanCounter(db).CountTables(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !tablesEqual(want[i], got[i]) {
			t.Fatalf("post-release divergence on %v", batch[i])
		}
	}
}

// TestNonCanonicalBatch counts a batch whose prefix runs are interleaved
// and repeated: the kernel finds runs by adjacency, so every order must
// give the scan's tables.
func TestNonCanonicalBatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := randomDB(r, 10, 120)
	batch := []itemset.Set{
		itemset.New(0, 1, 5),
		itemset.New(2, 3),
		itemset.New(0, 1, 2),
		itemset.New(0, 1, 2),
		itemset.New(4),
		itemset.New(0, 1, 9),
		itemset.New(0, 2, 3, 7),
		itemset.New(0, 2, 3, 4),
		itemset.New(),
		itemset.New(2, 6),
	}
	checkBatch(t, engines(db), batch, "non-canonical")
}

// TestParallelConcurrentWorkers floods the kernel from many workers on a
// prefix-heavy batch; run under -race this is the safety test for the
// counter's shared scratch list.
func TestParallelConcurrentWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 16, 200)
	p := NewParallelCounter(db, 8)
	scan := NewScanCounter(db)
	var batch []itemset.Set
	for a := 0; a < 8; a++ {
		for bI := a + 1; bI < 12; bI++ {
			for cI := bI + 1; cI < 16; cI++ {
				batch = append(batch, itemset.New(itemset.Item(a), itemset.Item(bI), itemset.Item(cI)))
			}
		}
	}
	itemset.SortSets(batch)
	want, err := scan.CountTables(batch)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := p.CountTables(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if !tablesEqual(want[i], got[i]) {
				t.Fatalf("round %d: divergence on %v", round, batch[i])
			}
		}
	}
}

// boundaryDB plants columns whose cardinalities and TID positions sit
// exactly on the compressed backend's internal edges: the 4096-entry
// array-to-bitmap promotion threshold and the 65536-TID chunk boundary.
// Off-by-ones in either show up here as cell divergences against the scan.
func boundaryDB(t *testing.T) *dataset.DB {
	t.Helper()
	const numTx = 70_000
	const chunk = 65_536
	cols := [][2]int{ // half-open TID ranges per item
		{0, 4095},              // array container one below the promotion edge
		{0, 4096},              // exactly at it
		{0, 4097},              // one over: must promote to bitmap
		{chunk - 3, chunk + 3}, // run straddling the chunk boundary
		{0, numTx},             // full-universe run across both chunks
		{chunk - 1, chunk + 1}, // the two TIDs either side of the edge
	}
	scattered := 6 // even TIDs around the edge: array containers in both chunks
	tx := make([]dataset.Transaction, numTx)
	for tid := 0; tid < numTx; tid++ {
		var items []itemset.Item
		for it, rng := range cols {
			if tid >= rng[0] && tid < rng[1] {
				items = append(items, itemset.Item(it))
			}
		}
		if tid >= chunk-100 && tid < chunk+100 && tid%2 == 0 {
			items = append(items, itemset.Item(scattered))
		}
		tx[tid] = itemset.New(items...)
	}
	db, err := dataset.NewDB(dataset.SyntheticCatalog(scattered+1, nil), tx)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDifferentialContainerBoundaries runs every pair and triple of the
// boundary-planted items through every engine on both backends.
func TestDifferentialContainerBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("70k-transaction corpus")
	}
	db := boundaryDB(t)
	if idx := dataset.BuildVerticalIndexBackend(db, tidlist.BackendCompressed); idx.Backend() != tidlist.BackendCompressed {
		t.Fatalf("forced compressed index reports %q", idx.Backend())
	}
	engs := engines(db)
	n := db.Catalog.Len()
	var batch []itemset.Set
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			batch = append(batch, itemset.New(itemset.Item(a), itemset.Item(b)))
			for c := b + 1; c < n; c++ {
				batch = append(batch, itemset.New(itemset.Item(a), itemset.Item(b), itemset.Item(c)))
			}
		}
	}
	itemset.SortSets(batch)
	checkBatch(t, engs, batch, "container boundaries")
}

func TestPrefixRuns(t *testing.T) {
	sets := []itemset.Set{
		itemset.New(0, 1, 2),
		itemset.New(0, 1, 3),
		itemset.New(0, 1, 4),
		itemset.New(0, 2, 3),
		itemset.New(1, 2, 3),
		itemset.New(1, 2, 4),
	}
	got := PrefixRuns(sets)
	want := [][2]int{{0, 3}, {3, 4}, {4, 6}}
	if len(got) != len(want) {
		t.Fatalf("prefixRuns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefixRuns = %v, want %v", got, want)
		}
	}
	if runs := PrefixRuns(nil); len(runs) != 0 {
		t.Fatalf("PrefixRuns(nil) = %v", runs)
	}
	// size changes break runs; the two pairs then share the prefix {0}
	mixed := []itemset.Set{itemset.New(0), itemset.New(0, 1), itemset.New(0, 2)}
	if runs := PrefixRuns(mixed); len(runs) != 2 {
		t.Fatalf("PrefixRuns(mixed) = %v", runs)
	}
	// singletons never group: there is no shared prefix to reuse
	ones := []itemset.Set{itemset.New(0), itemset.New(1), itemset.New(2)}
	if runs := PrefixRuns(ones); len(runs) != 3 {
		t.Fatalf("PrefixRuns(singletons) = %v", runs)
	}
}

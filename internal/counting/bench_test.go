package counting

import (
	"fmt"
	"sort"
	"testing"

	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// benchGenDB builds the paper's Agrawal–Srikant (Method 1) dataset at
// benchmark scale, shrunk to a catalog the batch builders can saturate.
func benchGenDB(b *testing.B) *dataset.DB {
	b.Helper()
	cfg := gen.DefaultMethod1(20000, 1)
	cfg.NumItems = 100
	cfg.NumPatterns = 50
	db, err := gen.Method1(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// prefixBatch returns every k-subset of the first m items in canonical
// order — the shape of a real candidate batch, where long runs of siblings
// share their (k-1)-item prefix.
func prefixBatch(m, k int) []itemset.Set {
	var out []itemset.Set
	var rec func(start int, cur []itemset.Item)
	rec = func(start int, cur []itemset.Item) {
		if len(cur) == k {
			out = append(out, itemset.New(cur...))
			return
		}
		for i := start; i <= m-(k-len(cur)); i++ {
			rec(i+1, append(cur, itemset.Item(i)))
		}
	}
	rec(0, nil)
	itemset.SortSets(out)
	return out
}

// BenchmarkCount measures one batch per iteration on every engine, at
// levels 2–4. The batch is prefix-sharing (all k-subsets of 12 items), the
// shape of a real candidate level: long prefix runs the bitmap kernel
// counts one run per call.
func BenchmarkCount(b *testing.B) {
	db := benchGenDB(b)
	for _, k := range []int{2, 3, 4} {
		batch := prefixBatch(12, k)
		b.Run(fmt.Sprintf("scan/level=%d", k), func(b *testing.B) {
			c := NewScanCounter(db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CountTables(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bitmap/level=%d", k), func(b *testing.B) {
			c := NewBitmapCounter(db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CountTables(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSparseDB builds the long-tail corpus the compressed backend exists
// for: ~0.2% density over a 4000-item catalog, with planted blocks on the
// low item IDs so the batches below count real structure.
func benchSparseDB(b *testing.B) *dataset.DB {
	b.Helper()
	db, err := gen.Sparse(gen.DefaultSparse(20000, 1))
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// backendsUnderTest forces each backend explicitly; "auto" is deliberately
// absent so the baselines pin both representations regardless of where the
// density heuristic places a corpus.
var backendsUnderTest = []tidlist.Backend{tidlist.BackendDense, tidlist.BackendCompressed}

// BenchmarkCountSparse builds the vertical index AND counts one
// prefix-sharing batch per iteration on each forced backend, over the
// sparse corpus. B/op is therefore dominated by the resident TID-list
// representation, which is exactly what bench.CheckBytesRatioFloor gates:
// once a committed baseline shows compressed ≤ 0.5x dense here, later runs
// may not give the win back. The index-bytes metric records the resident
// size directly.
func BenchmarkCountSparse(b *testing.B) {
	db := benchSparseDB(b)
	batch := prefixBatch(12, 2) // the planted blocks occupy items 0..11
	for _, be := range backendsUnderTest {
		b.Run("backend="+string(be), func(b *testing.B) {
			b.ReportAllocs()
			var c *BitmapCounter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c = NewBitmapCounterBackend(db, be)
				if _, err := c.CountTables(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.IndexBytes()), "index-bytes")
		})
	}
}

// BenchmarkCountBackendDense counts over a dense Method-1 corpus with the
// index built outside the loop, isolating the container kernels' ns/op
// against the dense word loops on the workload the dense backend wins. The
// corpus spans exactly one full 65536-TID chunk so the forced-compressed
// columns promote to bitmap containers (support ~13k per item, far above
// the 4096 array threshold) and the two backends run the same word loop —
// this is the representative dense regime; a corpus whose per-chunk
// cardinality sits just under the promotion edge pays an array-merge
// penalty instead, and the density heuristic steers such corpora to the
// dense backend anyway. The batch covers the 12 most frequent items — the
// shape of a real candidate batch, since candidates are joins of frequent
// sets — so intermediates stay above the threshold too. The name
// deliberately avoids "Sparse": this line informs the 1.3x ns/op
// expectation in the README, not the bytes floor.
func BenchmarkCountBackendDense(b *testing.B) {
	cfg := gen.DefaultMethod1(65536, 1)
	cfg.NumItems = 100
	cfg.NumPatterns = 50
	db, err := gen.Method1(cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx := dataset.BuildVerticalIndex(db)
	top := make([]int, cfg.NumItems)
	for i := range top {
		top[i] = i
	}
	sort.Slice(top, func(i, j int) bool {
		return idx.Column(itemset.Item(top[i])).Cardinality() > idx.Column(itemset.Item(top[j])).Cardinality()
	})
	var batch []itemset.Set
	for a := 0; a < 12; a++ {
		for bi := a + 1; bi < 12; bi++ {
			for ci := bi + 1; ci < 12; ci++ {
				batch = append(batch, itemset.New(
					itemset.Item(top[a]), itemset.Item(top[bi]), itemset.Item(top[ci])))
			}
		}
	}
	itemset.SortSets(batch)
	for _, be := range backendsUnderTest {
		b.Run("backend="+string(be), func(b *testing.B) {
			c := NewBitmapCounterBackend(db, be)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CountTables(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.IndexBytes()), "index-bytes")
		})
	}
}

// BenchmarkCountCrossLevel replays a miner-shaped level walk (levels 2→4,
// candidates joined from the previous level) per iteration: each level is
// a batch of prefix runs joined from the level before.
func BenchmarkCountCrossLevel(b *testing.B) {
	db := benchGenDB(b)
	var levels [][]itemset.Set
	level := prefixBatch(14, 2)
	for k := 2; k <= 4; k++ {
		levels = append(levels, level)
		next := itemset.Join(level)
		itemset.SortSets(next)
		level = next
	}

	walk := func(b *testing.B, c Counter) {
		b.Helper()
		for _, batch := range levels {
			if _, err := c.CountTables(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bitmap", func(b *testing.B) {
		c := NewBitmapCounter(db)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk(b, c)
		}
	})
}

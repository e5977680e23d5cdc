package counting

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ccs/internal/contingency"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// ParallelCounter is a BitmapCounter that distributes the itemsets of a
// batch across worker goroutines. Counting one prefix run is independent
// of the others (the vertical index is read-only), so a batch parallelizes
// embarrassingly; on a single core it degrades gracefully to the serial
// cost.
//
// Work is handed out in shards of whole prefix runs (PlanShards) — maximal
// stretches of the batch whose sets share everything but their last item —
// so every run is counted by one call of the run kernel, which
// materializes the run's shared prefix lists once.
type ParallelCounter struct {
	inner   *BitmapCounter
	workers int

	batches     atomic.Int64
	tablesBuilt atomic.Int64
}

// NewParallelCounter builds the vertical index for db and returns a counter
// using the given number of workers (0 = GOMAXPROCS).
func NewParallelCounter(db *dataset.DB, workers int) *ParallelCounter {
	return NewParallelCounterBackend(db, workers, tidlist.BackendAuto)
}

// NewParallelCounterBackend is NewParallelCounter with the TID-list
// representation pinned.
func NewParallelCounterBackend(db *dataset.DB, workers int, backend tidlist.Backend) *ParallelCounter {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelCounter{inner: NewBitmapCounterBackend(db, backend), workers: workers}
}

// IndexBackend reports the inner index's resolved TID-list representation.
func (p *ParallelCounter) IndexBackend() tidlist.Backend { return p.inner.IndexBackend() }

// IndexBytes reports the inner index's resident size.
func (p *ParallelCounter) IndexBytes() int64 { return p.inner.IndexBytes() }

// NumTx implements Counter.
func (p *ParallelCounter) NumTx() int { return p.inner.NumTx() }

// ItemSupports implements Counter.
func (p *ParallelCounter) ItemSupports() []int { return p.inner.ItemSupports() }

// Stats implements Counter.
func (p *ParallelCounter) Stats() Stats {
	return Stats{Batches: int(p.batches.Load()), TablesBuilt: int(p.tablesBuilt.Load())}
}

// CountShard implements ShardCounter by delegating to the inner bitmap
// kernel without fanning out again: a shard is already one worker's slice
// of a level, so nesting a second worker pool underneath it would only add
// hand-offs.
func (p *ParallelCounter) CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	return p.inner.CountShard(ctx, sets)
}

// PrefixRuns splits [0, len(sets)) into half-open index spans of adjacent
// sets that share their full prefix (all items but the last). Sets of
// different sizes, or with any differing prefix item, break the run. The
// batch must be in canonical order (itemset.SortSets) for the runs to be
// exactly the sibling groups. A run is the unit of the bitmap kernel (one
// countRun call each) and of shard planning: shards never split one.
func PrefixRuns(sets []itemset.Set) [][2]int {
	runs := make([][2]int, 0, len(sets))
	for lo := 0; lo < len(sets); {
		hi := runEnd(sets, lo)
		runs = append(runs, [2]int{lo, hi})
		lo = hi
	}
	return runs
}

// runEnd returns the end of the prefix run that starts at sets[lo].
func runEnd(sets []itemset.Set, lo int) int {
	hi := lo + 1
	for hi < len(sets) && samePrefixSet(sets[lo], sets[hi]) {
		hi++
	}
	return hi
}

// samePrefixSet reports whether a and b have equal size and agree on every
// item but the last. Singletons share only the empty prefix, so they never
// group — grouping them would serialize a level-1 batch for no reuse.
func samePrefixSet(a, b itemset.Set) bool {
	if len(a) != len(b) || len(a) < 2 {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CountTables implements Counter. Workers pull prefix runs from a shared
// channel; the first error wins and the batch still drains.
func (p *ParallelCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	return p.CountTablesContext(context.Background(), sets)
}

// CountTablesContext implements ContextCounter. Work is sharded by the
// cost model (PlanShards), not raw prefix runs: a batch whose estimated
// cost is below one shard budget — every level-1 batch, most tail levels —
// is counted in a single serial pass on the calling goroutine, so small
// levels spawn no goroutines just to lose the hand-off cost. Each worker
// counts its shards through the run kernel, which polls ctx between runs;
// on cancellation the remaining shards return at their first poll, and
// the call returns ctx.Err().
func (p *ParallelCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	p.batches.Add(1)
	p.tablesBuilt.Add(int64(len(sets)))
	recordSetsCounted("parallel", len(sets))
	out := make([]*contingency.Table, len(sets))
	if len(sets) == 0 {
		return out, nil
	}
	plan := p.inner.CostModel().PlanShards(sets, p.workers)
	if p.workers == 1 || len(plan.Shards) == 1 {
		if err := p.inner.count(ctx, sets, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	workers := p.workers
	if workers > len(plan.Shards) {
		workers = len(plan.Shards)
	}
	work := make(chan [2]int, len(plan.Shards))
	for _, si := range plan.Order {
		work <- plan.Shards[si].Span
	}
	close(work)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if err := p.inner.count(ctx, sets[r[0]:r[1]], out[r[0]:r[1]]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

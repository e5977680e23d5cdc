// Package counting turns a transaction database into contingency tables.
// It offers two independent engines with identical semantics:
//
//   - ScanCounter: horizontal, one pass over the transactions per batch —
//     the paper's cost model, where the number of candidate batches is the
//     number of database scans.
//   - BitmapCounter: vertical, intersecting per-item TID bitsets and
//     recovering minterm counts from subset supports by Möbius inversion.
//
// The two are cross-checked against each other in tests; the mining
// algorithms take the Counter interface and work with either.
package counting

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"ccs/internal/contingency"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// Stats records the work a counter has performed, mirroring the cost
// accounting of the paper's Section 3.3.
type Stats struct {
	Batches     int // CountTables calls = database scans for ScanCounter
	TablesBuilt int // contingency tables constructed
}

// Counter builds contingency tables for batches of itemsets.
type Counter interface {
	// NumTx returns the number of transactions covered.
	NumTx() int
	// ItemSupports returns per-item support counts (level-1 statistics).
	ItemSupports() []int
	// CountTables builds one contingency table per itemset. A call
	// represents one logical pass over the database.
	CountTables(sets []itemset.Set) ([]*contingency.Table, error)
	// Stats reports cumulative work counters.
	Stats() Stats
}

// ContextCounter is a Counter that also supports cooperative cancellation.
// All counters in this package implement it; the mining core uses the
// context-aware path whenever the caller supplied a cancellable context.
type ContextCounter interface {
	Counter
	// CountTablesContext is CountTables honoring ctx: once ctx is
	// cancelled it returns (nil, ctx.Err()) promptly, abandoning the
	// batch mid-flight. Partially counted tables are never returned.
	CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error)
}

// ShardCounter is a ContextCounter whose counting path is safe for
// concurrent use: the mining core's parallel level engine splits each
// lattice level into prefix-aligned shards and issues one CountShard call
// per shard from several worker goroutines at once. The bitmap-family
// counters implement it (their vertical index is read-only, each call
// takes its own count scratch, and the work counters are atomic); the
// horizontal scanners do not, so the core falls back to its serial path
// for them.
type ShardCounter interface {
	ContextCounter
	// CountShard is CountTablesContext with a concurrency guarantee:
	// multiple goroutines may call it simultaneously on disjoint shards of
	// one batch.
	CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error)
}

// checkEvery is how many transactions (or sets) a counting loop processes
// between cancellation polls — coarse enough to stay off the hot path,
// fine enough to stop within microseconds of a cancel.
const checkEvery = 1024

// cancelled polls ctx without blocking; done is ctx.Done(), hoisted by the
// caller so the nil-channel fast path costs one compare per poll.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ScanCounter counts minterms by scanning the horizontal transaction list.
type ScanCounter struct {
	db    *dataset.DB
	stats Stats
}

// NewScanCounter returns a horizontal counter over db.
func NewScanCounter(db *dataset.DB) *ScanCounter {
	return &ScanCounter{db: db}
}

// NumTx implements Counter.
func (s *ScanCounter) NumTx() int { return s.db.NumTx() }

// ItemSupports implements Counter.
func (s *ScanCounter) ItemSupports() []int { return s.db.ItemSupports() }

// Stats implements Counter.
func (s *ScanCounter) Stats() Stats { return s.stats }

// CountTables implements Counter with a single pass over the database for
// the whole batch.
func (s *ScanCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	return s.CountTablesContext(context.Background(), sets)
}

// setBit locates one bit of one batch set: item lookup[id] drives bit `bit`
// of the minterm index of set `set`.
type setBit struct {
	set int
	bit uint
}

// CountTablesContext implements ContextCounter, polling ctx every
// checkEvery transactions of the pass.
//
// Instead of merging every set against every transaction (the old
// mintermIndex loop, O(batch × |tx|) per transaction), the pass inverts the
// batch once into a per-item lookup: scanning a transaction then touches
// only the sets that share an item with it. The all-absent cell of each
// table is recovered at the end as n minus the touched counts, which is
// exactly what per-transaction increments would have produced.
func (s *ScanCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	s.stats.Batches++
	s.stats.TablesBuilt += len(sets)
	recordSetsCounted("scan", len(sets))
	cells := make([][]int, len(sets))
	maxItem := s.db.NumItems()
	for i, set := range sets {
		if set.Size() > contingency.MaxItems {
			return nil, fmt.Errorf("counting: itemset %v exceeds %d items", set, contingency.MaxItems)
		}
		cells[i] = make([]int, 1<<uint(set.Size()))
		if k := set.Size(); k > 0 && int(set[k-1]) >= maxItem {
			maxItem = int(set[k-1]) + 1
		}
	}
	lookup := make([][]setBit, maxItem)
	for i, set := range sets {
		for j, id := range set {
			lookup[id] = append(lookup[id], setBit{set: i, bit: uint(j)})
		}
	}
	idx := make([]int, len(sets))        // minterm accumulator per set
	touched := make([]int, 0, len(sets)) // sets with a nonzero accumulator
	done := ctx.Done()
	for ti, tx := range s.db.Tx {
		if ti%checkEvery == 0 && cancelled(done) {
			return nil, ctx.Err()
		}
		for _, id := range tx {
			for _, sb := range lookup[id] {
				if idx[sb.set] == 0 {
					touched = append(touched, sb.set)
				}
				idx[sb.set] |= 1 << sb.bit
			}
		}
		for _, si := range touched {
			cells[si][idx[si]]++
			idx[si] = 0
		}
		touched = touched[:0]
	}
	n := s.db.NumTx()
	out := make([]*contingency.Table, len(sets))
	for i, set := range sets {
		absent := n
		for _, c := range cells[i][1:] {
			absent -= c
		}
		cells[i][0] = absent
		t, err := contingency.New(set, n, cells[i])
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// mintermIndex computes the contingency cell of transaction tx for itemset
// set: bit j is set iff set[j] ∈ tx. Both slices are in canonical order, so
// a linear merge suffices.
func mintermIndex(set itemset.Set, tx dataset.Transaction) int {
	idx := 0
	ti := 0
	for j, id := range set {
		for ti < len(tx) && tx[ti] < id {
			ti++
		}
		if ti < len(tx) && tx[ti] == id {
			idx |= 1 << uint(j)
			ti++
		}
	}
	return idx
}

// BitmapCounter counts minterms from a vertical index. Subset supports are
// computed by intersecting item columns, then minterm counts follow by
// Möbius inversion over subsets.
//
// The kernel counts one prefix run at a time: a maximal stretch of
// adjacent sets {P∪{x₁}, …, P∪{xₘ}} that share every item but the last
// (PrefixRuns). The TID-lists of P's subsets are materialized once per
// run, and each member then needs only the popcounts of those lists
// against its own last column (tidlist.AndCount). Nothing outlives the
// run, so the counter carries no state between calls beyond its reusable
// scratch. The kernel speaks tidlist.List, so the same walk runs over
// dense bitset words or roaring-style compressed containers.
type BitmapCounter struct {
	idx      *dataset.VerticalIndex
	items    []int
	idxBytes int64     // resident index size, fixed at construction
	costm    CostModel // per-item shard pricing, fixed at construction

	// free holds count scratch between calls. It is a plain list on the
	// counter, not a sync.Pool: a pool that has been used stays on the
	// runtime's pool list until a second GC, and through it would pin the
	// counter and its index after the request that built them is gone.
	mu   sync.Mutex
	free []*countScratch

	// Work counters are atomic so concurrent CountShard callers (the
	// mining core's level-engine workers, ParallelCounter's pool) never
	// race on them.
	batches     atomic.Int64
	tablesBuilt atomic.Int64
}

func newBitmapCounter(idx *dataset.VerticalIndex, itemSupports []int) *BitmapCounter {
	b := &BitmapCounter{idx: idx, items: itemSupports, idxBytes: idx.SizeBytes()}
	b.costm = buildCostModel(idx, len(itemSupports))
	indexBytes.With(string(idx.Backend())).Set(b.idxBytes)
	return b
}

// NewBitmapCounter builds the vertical index for db and returns the counter.
// The TID-list representation is chosen by density (tidlist.Choose); use
// NewBitmapCounterBackend to pin it.
func NewBitmapCounter(db *dataset.DB) *BitmapCounter {
	return NewBitmapCounterBackend(db, tidlist.BackendAuto)
}

// NewBitmapCounterBackend is NewBitmapCounter with the TID-list
// representation pinned (tidlist.BackendAuto keeps the density heuristic).
func NewBitmapCounterBackend(db *dataset.DB, backend tidlist.Backend) *BitmapCounter {
	return newBitmapCounter(dataset.BuildVerticalIndexBackend(db, backend), db.ItemSupports())
}

// NewBitmapCounterFromIndex wraps an existing vertical index; itemSupports
// must match the index.
func NewBitmapCounterFromIndex(idx *dataset.VerticalIndex, itemSupports []int) *BitmapCounter {
	return newBitmapCounter(idx, itemSupports)
}

// IndexReporter is implemented by counters backed by a vertical index; it
// exposes which TID-list representation the index resolved to and what it
// costs resident. The mining core and the HTTP service use it for the
// per-mine profile's backend/index_bytes fields.
type IndexReporter interface {
	IndexBackend() tidlist.Backend
	IndexBytes() int64
}

// IndexBackend reports the resolved TID-list representation of the
// counter's vertical index.
func (b *BitmapCounter) IndexBackend() tidlist.Backend { return b.idx.Backend() }

// IndexBytes reports the resident size of the counter's vertical index.
func (b *BitmapCounter) IndexBytes() int64 { return b.idxBytes }

// NumTx implements Counter.
func (b *BitmapCounter) NumTx() int { return b.idx.NumTx() }

// ItemSupports implements Counter.
func (b *BitmapCounter) ItemSupports() []int {
	out := make([]int, len(b.items))
	copy(out, b.items)
	return out
}

// Stats implements Counter.
func (b *BitmapCounter) Stats() Stats {
	return Stats{Batches: int(b.batches.Load()), TablesBuilt: int(b.tablesBuilt.Load())}
}

// CountTables implements Counter.
func (b *BitmapCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	return b.CountTablesContext(context.Background(), sets)
}

// CountShard implements ShardCounter. The whole counting path is safe for
// concurrent use — each call takes its own count scratch, the vertical
// index is read-only, and the work counters are atomic — so CountShard is
// simply CountTablesContext under its concurrency contract.
func (b *BitmapCounter) CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	return b.CountTablesContext(ctx, sets)
}

// CountTablesContext implements ContextCounter, polling ctx between prefix
// runs. When the context carries a profiling arena (WithShardProf), the
// run kernel tallies its work into it.
func (b *BitmapCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	b.batches.Add(1)
	b.tablesBuilt.Add(int64(len(sets)))
	recordSetsCounted("bitmap", len(sets))
	out := make([]*contingency.Table, len(sets))
	if err := b.count(ctx, sets, out); err != nil {
		return nil, err
	}
	return out, nil
}

// count is the one counting entry every bitmap-family path shares: it
// splits sets into prefix runs by adjacency and counts each run with one
// countRun call, writing the tables into out (len(out) == len(sets)). A
// batch need not be canonical — a set whose neighbours do not share its
// prefix is simply a run of one. It polls ctx between runs and does not
// touch the work counters, which belong to the calling entry point.
func (b *BitmapCounter) count(ctx context.Context, sets []itemset.Set, out []*contingency.Table) error {
	if len(sets) == 0 {
		return nil
	}
	done := ctx.Done()
	prof := shardProfFrom(ctx)
	sc := b.takeScratch()
	defer b.returnScratch(sc)
	for lo := 0; lo < len(sets); {
		if cancelled(done) {
			return ctx.Err()
		}
		hi := runEnd(sets, lo)
		if err := b.countRun(sets[lo:hi], out[lo:hi], sc, prof); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// countScratch is the reusable working state of the run kernel: the
// registers over the run prefix's subsets, P's half of the support
// vector, and the TID-lists the registers materialize into. One scratch
// serves one call at a time; it only ever serves one counter, so every
// list already has the index's backend and universe.
type countScratch struct {
	inter []tidlist.List // inter[mask] = TID-list of P's sub-itemset mask
	gp    []int          // gp[mask] = support of P's sub-itemset mask
	lists []tidlist.List // materialized lists; lists[:used] hold this run's
	used  int
}

// takeScratch hands the calling goroutine a scratch of its own.
func (b *BitmapCounter) takeScratch() *countScratch {
	b.mu.Lock()
	defer b.mu.Unlock()
	if last := len(b.free) - 1; last >= 0 {
		sc := b.free[last]
		b.free = b.free[:last]
		return sc
	}
	return &countScratch{}
}

// returnScratch puts sc back on the counter's free list.
func (b *BitmapCounter) returnScratch(sc *countScratch) {
	b.mu.Lock()
	b.free = append(b.free, sc)
	b.mu.Unlock()
}

// list returns a TID-list to overwrite with And, reusing the lists earlier
// runs materialized.
func (sc *countScratch) list(idx *dataset.VerticalIndex) tidlist.List {
	if sc.used == len(sc.lists) {
		sc.lists = append(sc.lists, idx.NewList())
	}
	l := sc.lists[sc.used]
	sc.used++
	return l
}

// countRun builds the contingency tables of one prefix run: every set in
// run has the same size k and agrees on its first k-1 items P (a lone set
// is a run of one). Masks over a k-set split in two halves: those without
// the last item's bit are P's sub-itemsets, identical for every member;
// those with it are P's sub-itemsets joined with the member's last item x.
//
//   - P's half is computed once. Its sub-itemset TID-lists are the
//     registers inter[mask] = inter[mask∖high] ∩ col(P[high]):
//     2^(k-1) − k intersections, each materialized, because every one is
//     an operand of the member half.
//   - Each member copies P's half of the support vector and fills the other
//     half with 2^(k-1) − 1 popcounts |inter[mask] ∩ col(x)|, counted in
//     place (tidlist.AndCount) and never materialized.
//
// prof, when non-nil, receives the run's sets, cells, intersections and
// materialized lists; the nil case costs one branch per run.
func (b *BitmapCounter) countRun(run []itemset.Set, out []*contingency.Table, sc *countScratch, prof *ShardProf) error {
	k := run[0].Size()
	if k > contingency.MaxItems {
		return fmt.Errorf("counting: itemset %v exceeds %d items", run[0], contingency.MaxItems)
	}
	n := b.idx.NumTx()
	size := 1 << uint(k)
	half := size >> 1
	if k == 0 {
		half = 1 // the empty set's one cell is P's (empty) half
	}
	if cap(sc.inter) < half {
		sc.inter = make([]tidlist.List, half)
		sc.gp = make([]int, half)
	}
	inter, gp := sc.inter[:half], sc.gp[:half]
	sc.used = 0
	gp[0] = n
	for mask := 1; mask < half; mask++ {
		high := bits.Len(uint(mask)) - 1
		rest := mask &^ (1 << uint(high))
		id := run[0][high]
		if rest == 0 {
			inter[mask] = b.idx.Column(id)
			gp[mask] = b.items[id]
			continue
		}
		l := sc.list(b.idx)
		l.And(inter[rest], b.idx.Column(id))
		inter[mask] = l
		gp[mask] = l.Cardinality()
	}
	for i, set := range run {
		// g becomes the table's cell slice after inversion, so it is the
		// one allocation per set that cannot be reused.
		g := make([]int, size)
		copy(g, gp)
		if k > 0 {
			x := set[k-1]
			col := b.idx.Column(x)
			g[half] = b.items[x]
			for mask := 1; mask < half; mask++ {
				g[half|mask] = tidlist.AndCount(inter[mask], col)
			}
		}
		mobius(g, k)
		t, err := contingency.New(set, n, g)
		if err != nil {
			return err
		}
		out[i] = t
	}
	if prof != nil {
		m := int64(len(run))
		made := int64(sc.used)
		prof.Sets.Add(m)
		prof.Cells.Add(m * int64(size))
		prof.Materialized.Add(made)
		prof.Intersections.Add(made + m*int64(half-1))
	}
	return nil
}

// mobius inverts subset supports into minterm counts in place: afterwards
// g[mask] = #transactions whose intersection with the k-set is exactly
// mask.
func mobius(g []int, k int) {
	size := len(g)
	for j := 0; j < k; j++ {
		bit := 1 << uint(j)
		for mask := 0; mask < size; mask++ {
			if mask&bit == 0 {
				g[mask] -= g[mask|bit]
			}
		}
	}
}

package counting

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// TestCounterCollectedAfterUse checks that a counter which has counted is
// garbage after its last reference goes: its finalizer must run after one
// GC. Count scratch kept in a sync.Pool inside the counter fails this — a
// used pool stays on the runtime's pool list until a second GC, and pins
// the counter and its index with it.
func TestCounterCollectedAfterUse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	db := randomDB(r, 12, 300)
	collected := make(chan struct{})
	func() {
		c := NewBitmapCounter(db)
		runtime.SetFinalizer(c, func(*BitmapCounter) { close(collected) })
		if _, err := c.CountTables(prefixBatch(8, 3)); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("counter survived one GC after its last use")
	}
}

// TestShardCostIsIntersections holds the shard planner to the kernel: on
// the dense backend every column costs the same number of words, so each
// shard's planned cost must equal the intersections the kernel counted
// for it times that word count, exactly.
func TestShardCostIsIntersections(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	db := randomDB(r, 14, 20000) // wide enough lists that levels 3-4 split into shards
	bm := NewBitmapCounterBackend(db, tidlist.BackendDense)
	words := wordsPerList(db.NumTx())

	level := prefixBatch(14, 2)
	shards := 0
	for k := 2; k <= 4; k++ {
		plan := bm.CostModel().PlanShards(level, 64)
		shards += len(plan.Shards)
		var total int64
		for i, sh := range plan.Shards {
			var prof ShardProf
			ctx := WithShardProf(context.Background(), &prof)
			if _, err := bm.CountShard(ctx, level[sh.Span[0]:sh.Span[1]]); err != nil {
				t.Fatal(err)
			}
			if got := prof.Intersections.Load() * words; got != sh.Cost {
				t.Errorf("level %d shard %d: planned cost %d, counted %d intersections × %d words = %d",
					k, i, sh.Cost, prof.Intersections.Load(), words, got)
			}
			total += sh.Cost
		}
		if total != plan.Total {
			t.Errorf("level %d: shard costs sum to %d, plan total %d", k, total, plan.Total)
		}
		next := itemset.Join(level)
		itemset.SortSets(next)
		level = next
	}
	if shards < 6 {
		t.Fatalf("levels 2-4 planned only %d shards; the check needs several per level", shards)
	}
}

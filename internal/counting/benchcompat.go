package counting

import (
	"context"
	"fmt"

	"ccs/internal/contingency"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// This file holds the names of the deleted prefix cache that the
// end-to-end benchmark's traced replay (benchmark/replay.go) still
// compiles against. None of them does any caching: the run kernel keeps
// no state between calls. Each stays only for benchmark/, until the traced
// replay reads real server spans instead of forwarding a counter
// (ROADMAP item 6); then this file goes.

// DefaultCacheBytes was the default prefix-cache budget (32 MiB). It stays
// only for benchmark/, until the traced replay reads real server spans
// (ROADMAP item 6); no counter reads it.
const DefaultCacheBytes = 32 << 20

// CacheStats was a prefix cache's counter snapshot. It stays only for
// benchmark/, until the traced replay reads real server spans (ROADMAP
// item 6); it is always the zero value.
type CacheStats struct{}

// HitRate is always 0: there is no cache to hit. It stays only for
// benchmark/, until the traced replay reads real server spans (ROADMAP
// item 6).
func (CacheStats) HitRate() float64 { return 0 }

// LevelArenas was one level's set of per-worker cache arenas. It stays
// only for benchmark/, until the traced replay reads real server spans
// (ROADMAP item 6); NewLevelArenas always returns nil.
type LevelArenas struct{}

// CacheArena was one worker's private prefix cache. It stays only for
// benchmark/, until the traced replay reads real server spans (ROADMAP
// item 6); CountShardArena ignores it.
type CacheArena struct{}

// ArenaCounter is a ShardCounter that can count into a caller-owned
// buffer. It stays only for benchmark/, until the traced replay reads real
// server spans (ROADMAP item 6); the mining core no longer probes for it.
type ArenaCounter interface {
	ShardCounter
	// NewLevelArenas returns nil: counting keeps no state across shards.
	NewLevelArenas(n int) *LevelArenas
	// CountShardArena is CountShard writing tables into out (len(out)
	// must equal len(sets)); arena is ignored.
	CountShardArena(ctx context.Context, sets []itemset.Set, out []*contingency.Table, arena *CacheArena) error
}

// CacheStats returns the zero value. It stays only for benchmark/, until
// the traced replay reads real server spans (ROADMAP item 6).
func (b *BitmapCounter) CacheStats() CacheStats { return CacheStats{} }

// ReleaseCache does nothing. It stays only for benchmark/, until the
// traced replay reads real server spans (ROADMAP item 6).
func (b *BitmapCounter) ReleaseCache() {}

// NewLevelArenas returns nil, the uncached case of ArenaCounter. It stays
// only for benchmark/, until the traced replay reads real server spans
// (ROADMAP item 6).
func (b *BitmapCounter) NewLevelArenas(n int) *LevelArenas { return nil }

// CountShardArena counts sets into out with the run kernel and ignores
// arena. It stays only for benchmark/, until the traced replay reads real
// server spans (ROADMAP item 6).
func (b *BitmapCounter) CountShardArena(ctx context.Context, sets []itemset.Set, out []*contingency.Table, arena *CacheArena) error {
	if len(out) != len(sets) {
		return fmt.Errorf("counting: CountShardArena buffer length %d != %d sets", len(out), len(sets))
	}
	b.batches.Add(1)
	b.tablesBuilt.Add(int64(len(sets)))
	recordSetsCounted("bitmap", len(sets))
	return b.count(ctx, sets, out)
}

// NewCachedBitmapCounterBackend is NewBitmapCounterBackend; cacheBytes is
// ignored. It stays only for benchmark/, until the traced replay reads
// real server spans (ROADMAP item 6).
func NewCachedBitmapCounterBackend(db *dataset.DB, cacheBytes int64, backend tidlist.Backend) *BitmapCounter {
	return NewBitmapCounterBackend(db, backend)
}

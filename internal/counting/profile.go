package counting

import (
	"context"
	"sync/atomic"
)

// ShardProf is the per-shard profiling arena the mining core's profiler
// (internal/obs Profile) threads through a counting call: the bitmap-family
// counters tally into it how many sets and contingency cells a shard
// counted and exactly how much intersection work that took.
//
// Fields are atomics because ParallelCounter fans a batch out across its
// own workers, all sharing one context; the level engine's CountShard path
// has one goroutine per ShardProf, where the atomics cost a few ns per run.
// A nil *ShardProf disables collection — the counters take a pointer per
// batch from the context (one allocation-free Value lookup) and guard every
// tally on it, so the disabled path does no extra work and no extra
// allocation.
type ShardProf struct {
	Sets  atomic.Int64 // itemsets counted
	Cells atomic.Int64 // contingency cells produced (2^k per k-set)
	// Intersections counts TID-list intersections, materialized or
	// popcounted in place; on the dense backend each costs the same number
	// of words, so Intersections × words is the shard's exact work.
	Intersections atomic.Int64
	// Materialized counts the intersections that were written out as
	// TID-lists (the registers over a prefix run's shared prefix).
	Materialized atomic.Int64
}

// shardProfKey is the context key carrying a *ShardProf.
type shardProfKey struct{}

// WithShardProf returns a context that directs the bitmap-family counters
// to tally per-shard profiling data into prof. Passing a nil prof returns
// ctx unchanged.
func WithShardProf(ctx context.Context, prof *ShardProf) context.Context {
	if prof == nil {
		return ctx
	}
	return context.WithValue(ctx, shardProfKey{}, prof)
}

// shardProfFrom extracts the profiling arena, nil when none is attached.
func shardProfFrom(ctx context.Context) *ShardProf {
	prof, _ := ctx.Value(shardProfKey{}).(*ShardProf)
	return prof
}

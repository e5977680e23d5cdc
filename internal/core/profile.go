package core

import (
	"time"

	"ccs/internal/counting"
	"ccs/internal/itemset"
	"ccs/internal/obs"
)

// This file holds the mining core's profiler collection points (DESIGN.md
// §13). The profiler itself — accumulators, JSON schema, nil-safety — lives
// in internal/obs; the core decides where the phase boundaries are:
//
//   - candgen:  pairs/extend/extendAny between levels (ctl.candgen)
//   - precheck: a level's anti-monotone screening stage
//   - count:    counting on the mining goroutine (the serial path)
//   - evaluate: chi-squared evaluation and answer collection
//   - stall:    the parallel evaluator blocked on an unfinished shard
//
// All phases are measured on the mining goroutine, so a run's phase
// totals sum to its wall clock (up to the "other" residual) at every
// worker count — which is what lets ccsprof decompose a serial-vs-parallel
// wall-time gap exactly into per-phase deltas. Per-shard work (sets,
// cells, intersections, goroutine-seconds) is collected in arena-style
// counting.ShardProf blocks, one per shard, merged into the level record
// in shard index order at level commit — deterministic at every worker
// count. Every collection point guards on one pointer, so a run without
// WithProfile costs nothing: no clock reads, no allocations.

// MetricPhaseSeconds observes profiled mining wall time by phase
// (candgen/precheck/count/evaluate/stall), on the sub-millisecond buckets.
// Only profiled runs feed it.
const MetricPhaseSeconds = "ccs_mine_phase_seconds"

var phaseSeconds = obs.Default().HistogramVec(MetricPhaseSeconds,
	"Profiled mining wall time by phase (per level; candgen per generation).",
	obs.SubMillisecondBuckets, "phase")

// WithProfile attaches a per-run profiler. The profile observes every
// subsequent run, so use one Miner per profiled run (the HTTP service and
// ccsmine both build one per request); concurrent runs sharing a profile
// interleave their levels. A nil profile leaves profiling off.
func WithProfile(p *obs.Profile) Option {
	return func(cfg *minerConfig) { cfg.prof = p }
}

// startLevel opens per-level profiling for spec; cells0 snapshots the cell
// charge so endLevel can attribute the level's delta. Returns (nil, 0)
// when profiling is off.
func (c *runCtl) startLevel(spec levelSpec) (*obs.LevelProf, int64) {
	if c.prof == nil {
		return nil, 0
	}
	return c.prof.StartLevel(spec.phase, spec.level, len(spec.cands)), c.cells
}

// endLevel commits a level's kept count, cell delta, and wall time
// (no-op when lp is nil).
func (c *runCtl) endLevel(lp *obs.LevelProf, kept int, cells0 int64) {
	if lp == nil {
		return
	}
	lp.SetKept(kept)
	lp.AddCells(c.cells - cells0)
	lp.End()
}

// observePart attributes d and alloc to one phase of lp and feeds the
// phase histogram. Callers only reach it on the profiled path.
func observePart(lp *obs.LevelProf, phase string, d time.Duration, alloc int64) {
	lp.AddPart(phase, d, alloc)
	phaseSeconds.With(phase).Observe(d.Seconds())
}

// candgen runs one candidate-generation step, attributing its wall time
// and allocation to the candgen phase when profiling is on.
func (c *runCtl) candgen(fn func() []itemset.Set) []itemset.Set {
	if c.prof == nil {
		return fn()
	}
	a0 := obs.AllocBytes()
	t0 := time.Now()
	out := fn()
	d := time.Since(t0)
	c.prof.AddPhase(obs.PhaseCandgen, d, obs.AllocBytes()-a0, 0)
	phaseSeconds.With(obs.PhaseCandgen).Observe(d.Seconds())
	return out
}

// shardStat renders one shard's arena into the profile's JSON shape; cost
// is the scheduler's estimate for the shard in word-operations.
func shardStat(worker int, dur time.Duration, cost int64, sp *counting.ShardProf) obs.ShardStat {
	return obs.ShardStat{
		Worker:        worker,
		Sets:          int(sp.Sets.Load()),
		Cells:         sp.Cells.Load(),
		Cost:          cost,
		Seconds:       dur.Seconds(),
		Intersections: sp.Intersections.Load(),
		Materialized:  sp.Materialized.Load(),
	}
}

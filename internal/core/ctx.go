package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccs/internal/contingency"
	"ccs/internal/counting"
	"ccs/internal/itemset"
	"ccs/internal/obs"
)

// ErrBudgetExceeded is the truncation cause when a run exhausts its Budget.
// Causes carried on Result.Cause wrap it together with the limit that
// tripped, so errors.Is(cause, ErrBudgetExceeded) distinguishes budget
// exhaustion from caller-driven cancellation.
var ErrBudgetExceeded = errors.New("core: budget exceeded")

// Budget bounds the resources one mining run may consume. A zero field is
// unlimited; the zero Budget imposes no limits at all. Limits are enforced
// at level/batch granularity: when one trips, the run stops counting,
// discards the level in flight, and returns the answers of the completed
// levels with Result.Truncated set — it does not fail.
type Budget struct {
	// MaxWall caps the wall-clock time of the run. It is enforced through a
	// derived context deadline, so a counter that honors cancellation stops
	// mid-batch.
	MaxWall time.Duration
	// MaxCandidates caps the number of candidate sets generated across all
	// levels (Stats.Candidates).
	MaxCandidates int
	// MaxCells caps the number of contingency-table cells counted: each
	// k-set charges 2^k cells when its batch is issued.
	MaxCells int64
}

// WithBudget installs per-run resource limits on the Miner. The limits
// apply to every subsequent run, Context variant or not.
func WithBudget(b Budget) Option {
	return func(cfg *minerConfig) { cfg.budget = b }
}

// runCtl carries one run's cancellation and budget state. Every algorithm
// loop consults it at level boundaries (interrupted) and charges it per
// counting batch (countBatch); the first cause observed is sticky.
type runCtl struct {
	ctx          context.Context
	budget       Budget
	wallDeadline time.Time // non-zero only when budget.MaxWall is set
	cells        int64     // contingency cells charged so far
	cause        error

	// prof is the run's profiler; nil means profiling is off and every
	// collection point reduces to one pointer-nil branch.
	prof *obs.Profile
	// sp, when non-nil, is the serial counting arena the next
	// countBatchCtl call threads through the counter's context. Only the
	// mining goroutine touches it (set before the call, cleared after).
	sp *counting.ShardProf
	// scratch holds the parallel level engine's reusable per-level
	// buffers. A runCtl belongs to exactly one run, so reuse across its
	// levels needs no synchronization beyond the engine's own barriers.
	scratch levelScratch
}

// newCtl binds ctx and the miner's budget into a fresh control block.
// release must be called when the run ends (it drops the MaxWall timer).
func (m *Miner) newCtl(ctx context.Context) (ctl *runCtl, release context.CancelFunc) {
	ctl = &runCtl{ctx: ctx, budget: m.budget, prof: m.prof}
	m.prof.SetWorkers(m.effectiveWorkers())
	release = func() {}
	if m.budget.MaxWall > 0 {
		ctl.wallDeadline = time.Now().Add(m.budget.MaxWall)
		ctl.ctx, release = context.WithDeadline(ctx, ctl.wallDeadline)
	}
	return ctl, release
}

// interrupted reports the run's truncation cause, or nil to keep going.
func (c *runCtl) interrupted(stats *Stats) error {
	if c.cause != nil {
		return c.cause
	}
	if err := c.ctx.Err(); err != nil {
		c.cause = c.classify(err)
		return c.cause
	}
	if c.budget.MaxCandidates > 0 && stats.Candidates > c.budget.MaxCandidates {
		c.cause = fmt.Errorf("%w: %d candidates generated (limit %d)",
			ErrBudgetExceeded, stats.Candidates, c.budget.MaxCandidates)
		return c.cause
	}
	if c.budget.MaxCells > 0 && c.cells > c.budget.MaxCells {
		c.cause = fmt.Errorf("%w: %d contingency cells counted (limit %d)",
			ErrBudgetExceeded, c.cells, c.budget.MaxCells)
		return c.cause
	}
	return nil
}

// classify attributes a context error to the budget when the run's own
// wall-clock deadline (not an earlier caller deadline) is what fired.
func (c *runCtl) classify(err error) error {
	if errors.Is(err, context.DeadlineExceeded) &&
		!c.wallDeadline.IsZero() && !time.Now().Before(c.wallDeadline) {
		return fmt.Errorf("%w: wall clock limit %v: %v", ErrBudgetExceeded, c.budget.MaxWall, err)
	}
	return err
}

// truncation classifies an error bubbling out of a counting batch: a
// non-nil result is the truncation cause (stop, keep completed levels),
// nil means a genuine failure the caller must return.
func (c *runCtl) truncation(err error) error {
	if err == nil {
		return nil
	}
	if c.cause != nil {
		return c.cause
	}
	if errors.Is(err, ErrBudgetExceeded) {
		c.cause = err
		return c.cause
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.cause = c.classify(err)
		return c.cause
	}
	return nil
}

// countBatchCtl builds tables for the batch under ctl: it charges the cell
// budget, bails out when the run is interrupted, and uses the counter's
// context-aware path when available so cancellation lands mid-batch.
//
// Batch ordering contract: every candidate generator (pairs, extend,
// extendAny) sorts its output with itemset.SortSets before it reaches this
// call, so sets that share a prefix arrive adjacent. The bitmap kernel
// relies on that adjacency — it materializes a prefix run's shared prefix
// lists once for all its members, and the shard planner cuts batches only
// between runs — so any new generator must keep emitting canonically
// sorted batches (an unsorted batch still counts correctly, only slower).
func (m *Miner) countBatchCtl(ctl *runCtl, stats *Stats, sets []itemset.Set) ([]*contingency.Table, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	for _, s := range sets {
		ctl.cells += int64(1) << uint(s.Size())
	}
	if cause := ctl.interrupted(stats); cause != nil {
		return nil, cause
	}
	stats.DBScans++
	stats.SetsConsidered += len(sets)
	cctx := ctl.ctx
	if ctl.sp != nil {
		cctx = counting.WithShardProf(cctx, ctl.sp)
	}
	if cc, ok := m.cnt.(counting.ContextCounter); ok && (cctx.Done() != nil || ctl.sp != nil) {
		return cc.CountTablesContext(cctx, sets)
	}
	return m.cnt.CountTables(sets)
}

// truncate marks a result as cut short by cause.
func truncate(res *Result, cause error) *Result {
	res.Truncated = true
	res.Cause = cause
	return res
}

// BMSContext is BMS honoring ctx and the Miner's Budget; see the Result
// fields Truncated and Cause for the partial-answer contract.
func (m *Miner) BMSContext(ctx context.Context) (*Result, error) {
	const algo = "bms"
	startMine(algo)
	ctl, release := m.newCtl(ctx)
	defer release()
	out, err := m.runBaseline(ctl, algo)
	if err != nil {
		return nil, err
	}
	res := &Result{Answers: out.sig, Stats: out.stats}
	if out.cause != nil {
		truncate(res, out.cause)
	}
	recordMine(algo, res, ctl)
	return res, nil
}

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccs/internal/contingency"
	"ccs/internal/counting"
	"ccs/internal/itemset"
	"ccs/internal/obs"
)

// This file implements the sharded, pipelined level engine every
// level-wise algorithm runs on (see DESIGN.md §10 and §14). One lattice
// level's work — anti-monotone pre-checks, counting, and statistical
// evaluation — is described by a levelSpec and executed by runLevel. With
// Workers <= 1 (or a counter that cannot count concurrently) runLevel is
// the exact serial path the algorithms always had; with more workers the
// candidate batch is sharded by the cost model (counting.PlanShards): a
// worker pool counts shards in longest-first dispatch order while the
// mining goroutine evaluates finished shards in index order, claiming and
// counting any shard the pool has not started rather than stalling on it.
// Evaluation always happens in canonical batch order, and each algorithm
// buffers its per-level effects until runLevel returns success, so the
// mined answers, Stats counters, and budget/truncation behavior are
// byte-identical to the serial run at every worker count.

// shardVerdict is a pre-check's decision for one candidate.
type shardVerdict uint8

const (
	// keepSet admits the candidate to counting.
	keepSet shardVerdict = iota
	// dropSet discards the candidate silently (e.g. the upward sweep
	// dropping supersets of an already-found answer).
	dropSet
	// dropSetAM discards the candidate as failing a non-succinct
	// anti-monotone constraint; counted in Stats.PrunedByAM.
	dropSetAM
)

// levelSpec describes one lattice level's batched work.
type levelSpec struct {
	// algo labels the shard metrics; use the same lowercase name passed to
	// startMine.
	algo string
	// phase and level label the profiler's per-level records (same values
	// as the ProgressEvent the level reports); unused when profiling is
	// off.
	phase string
	level int
	// cands is the level's candidate batch in canonical order
	// (itemset.SortSets) — the order the prefix-aligned shards and the
	// evaluation sequence both rely on.
	cands []itemset.Set
	// pre screens a candidate before counting; nil keeps every candidate.
	// It must be a pure function of the candidate (it runs concurrently
	// and its verdicts must not depend on evaluation order).
	pre func(itemset.Set) shardVerdict
	// eval consumes one counted candidate. Calls arrive strictly in
	// canonical batch order on the mining goroutine, but — because a level
	// in flight can still be discarded by cancellation — eval must only
	// write level-local state that the caller commits after runLevel
	// returns nil.
	eval func(s itemset.Set, t *contingency.Table)
}

// minParallelCands is the smallest batch worth even pricing for shards;
// below it the plan is always a single shard and the serial path is
// cheaper than building one.
const minParallelCands = 16

// preSpansPerWorker over-decomposes the pre-check stage (pre-checks are
// cheap and uniform, so light oversubscription suffices).
const preSpansPerWorker = 4

// effectiveWorkers resolves the Workers knob: 0 means GOMAXPROCS,
// anything below 1 means serial.
func (m *Miner) effectiveWorkers() int {
	w := m.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// levelScratch holds the parallel engine's per-level buffers, owned by one
// run (it lives on runCtl) and reused across its levels so steady-state
// levels allocate only their work channel. Slices are grown, never shrunk.
type levelScratch struct {
	verdicts []shardVerdict
	tables   []*contingency.Table
	claims   []atomic.Int32 // 0 = unstarted, 1 = claimed by a counter
	errs     []error
	done     []chan struct{} // cap-1 done tokens, one per shard, drained every level
	workerOf []int
	durs     []time.Duration
	sprofs   []*counting.ShardProf
	busyNs   []int64
	shardCnt []int
}

// verdictBuf returns a verdict buffer of length n (contents arbitrary —
// the pre-check stage writes every slot before any is read).
func (s *levelScratch) verdictBuf(n int) []shardVerdict {
	if cap(s.verdicts) < n {
		s.verdicts = make([]shardVerdict, n)
	}
	return s.verdicts[:n]
}

// ensure sizes the per-shard and per-set buffers for a level of nShards
// shards over nSets kept candidates and resets the per-level state.
func (s *levelScratch) ensure(nShards, nSets, nWorkers int) {
	if cap(s.tables) < nSets {
		s.tables = make([]*contingency.Table, nSets)
	}
	s.tables = s.tables[:nSets]
	if cap(s.claims) < nShards {
		s.claims = make([]atomic.Int32, nShards)
		s.errs = make([]error, nShards)
		s.workerOf = make([]int, nShards)
		s.durs = make([]time.Duration, nShards)
	}
	s.claims = s.claims[:nShards]
	s.errs = s.errs[:nShards]
	s.workerOf = s.workerOf[:nShards]
	s.durs = s.durs[:nShards]
	for i := 0; i < nShards; i++ {
		s.claims[i].Store(0)
		s.errs[i] = nil
		s.workerOf[i] = 0
		s.durs[i] = 0
	}
	for len(s.done) < nShards {
		s.done = append(s.done, make(chan struct{}, 1))
	}
	if cap(s.busyNs) < nWorkers {
		s.busyNs = make([]int64, nWorkers)
		s.shardCnt = make([]int, nWorkers)
	}
	s.busyNs = s.busyNs[:nWorkers]
	s.shardCnt = s.shardCnt[:nWorkers]
	for w := 0; w < nWorkers; w++ {
		s.busyNs[w] = 0
		s.shardCnt[w] = 0
	}
}

// profBuf returns nShards zeroed shard-profiling arenas (profiled runs
// only).
func (s *levelScratch) profBuf(nShards int) []*counting.ShardProf {
	for len(s.sprofs) < nShards {
		s.sprofs = append(s.sprofs, &counting.ShardProf{})
	}
	out := s.sprofs[:nShards]
	for _, sp := range out {
		*sp = counting.ShardProf{}
	}
	return out
}

// runLevel executes one level under ctl. Its error contract matches
// countBatchCtl: callers classify a non-nil error with ctl.truncation and
// discard the level in flight. On success every kept candidate has been
// evaluated exactly once, in canonical order.
func (m *Miner) runLevel(ctl *runCtl, stats *Stats, spec levelSpec) error {
	workers := m.effectiveWorkers()
	if workers > 1 && len(spec.cands) >= minParallelCands {
		if sc, ok := m.cnt.(counting.ShardCounter); ok {
			return m.runLevelParallel(ctl, stats, spec, sc, workers)
		}
	}
	return m.runLevelSerial(ctl, stats, spec)
}

// runLevelSerial is the exact single-threaded path: pre-check, one batched
// count, in-order evaluation. When profiling is on, the three stages are
// timed on this goroutine and the whole batch reports as one shard
// (worker 0), so serial and parallel profiles share a schema.
func (m *Miner) runLevelSerial(ctl *runCtl, stats *Stats, spec levelSpec) error {
	lp, cells0 := ctl.startLevel(spec)
	prof := lp != nil
	var t0 time.Time
	var a0 int64
	if prof {
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	kept := spec.cands
	if spec.pre != nil {
		kept = spec.cands[:0]
		for _, c := range spec.cands {
			switch spec.pre(c) {
			case keepSet:
				kept = append(kept, c)
			case dropSetAM:
				stats.PrunedByAM++
			}
		}
	}
	var sp *counting.ShardProf
	if prof {
		observePart(lp, obs.PhasePrecheck, time.Since(t0), obs.AllocBytes()-a0)
		sp = &counting.ShardProf{}
		ctl.sp = sp
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	tables, err := m.countBatchCtl(ctl, stats, kept)
	if prof {
		ctl.sp = nil
		d := time.Since(t0)
		observePart(lp, obs.PhaseCount, d, obs.AllocBytes()-a0)
		if sp.Sets.Load() > 0 {
			lp.AddShard(shardStat(0, d, counting.CostModelOf(m.cnt).BatchCost(kept), sp))
		}
	}
	if err != nil {
		ctl.endLevel(lp, len(kept), cells0)
		return err
	}
	if prof {
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	for i, t := range tables {
		spec.eval(kept[i], t)
	}
	if prof {
		observePart(lp, obs.PhaseEval, time.Since(t0), obs.AllocBytes()-a0)
	}
	ctl.endLevel(lp, len(kept), cells0)
	return nil
}

// runLevelParallel shards the batch by estimated counting cost and
// pipelines counting against evaluation. The budget is settled exactly as
// in the serial path — the whole level's cells are charged and the trip
// decision taken before any table is built or evaluated — so budget
// truncation is deterministic across worker counts. Cancellation is
// observed per shard (each counting call polls ctl.ctx); any shard error
// discards the level whole, after the end-of-level barrier, which
// preserves the whole-level prefix soundness guarantee of Result.Answers.
//
// Three design points kill the hand-off overhead the old sibling-group
// engine measured (26-29% stall, ≪100µs shards, two lock trips per
// candidate):
//
//   - Shards come from counting.PlanShards: prefix-run aligned, each at
//     least MinShardCost of estimated work, dispatched costliest-first so
//     one big shard cannot strand the pool at the end of the level.
//   - Each shard is one CountShard call, which counts whole prefix runs
//     with the run kernel and shares no state with other shards.
//   - The evaluator helps instead of stalling: needing shard i, it first
//     tries to claim i and count it inline; it blocks only when a worker
//     already owns i. On one core this degenerates to the serial schedule
//     (near-zero stall); on many cores it adds a worker.
func (m *Miner) runLevelParallel(ctl *runCtl, stats *Stats, spec levelSpec, sc counting.ShardCounter, workers int) error {
	lp, cells0 := ctl.startLevel(spec)
	prof := lp != nil
	var t0 time.Time
	var a0 int64
	if prof {
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	scr := &ctl.scratch

	// Stage 1: pre-check over coarse spans, then an in-place compaction on
	// this goroutine — the same left-to-right order as the serial path, so
	// kept and Stats.PrunedByAM come out identical.
	kept := spec.cands
	if spec.pre != nil {
		verdicts := scr.verdictBuf(len(spec.cands))
		spans := evenSpans(len(spec.cands), workers*preSpansPerWorker)
		runPool(workers, len(spans), func(i int) {
			for j := spans[i][0]; j < spans[i][1]; j++ {
				verdicts[j] = spec.pre(spec.cands[j])
			}
		})
		kept = spec.cands[:0]
		for j, c := range spec.cands {
			switch verdicts[j] {
			case keepSet:
				kept = append(kept, c)
			case dropSetAM:
				stats.PrunedByAM++
			}
		}
	}

	// Settle the budget for the whole level before dispatching any
	// counting — the same charge, the same trip point, and the same cause
	// values the serial countBatchCtl produces.
	for _, s := range kept {
		ctl.cells += int64(1) << uint(s.Size())
	}
	if prof {
		observePart(lp, obs.PhasePrecheck, time.Since(t0), obs.AllocBytes()-a0)
	}
	if len(kept) == 0 {
		ctl.endLevel(lp, 0, cells0)
		return nil
	}
	if cause := ctl.interrupted(stats); cause != nil {
		ctl.endLevel(lp, len(kept), cells0)
		return cause
	}
	stats.DBScans++
	stats.SetsConsidered += len(kept)

	plan := counting.CostModelOf(m.cnt).PlanShards(kept, workers)
	if len(plan.Shards) <= 1 {
		// The whole level is worth less than one shard budget: count it on
		// this goroutine. The plan told us parallelism cannot pay here.
		return m.finishLevelOneShard(ctl, stats, spec, sc, lp, cells0, kept, plan.Total)
	}

	// Stage 2: the pool counts shards costliest-first while this goroutine
	// evaluates them in index order, claiming unstarted shards itself.
	nShards := len(plan.Shards)
	n := workers
	if n > nShards {
		n = nShards
	}
	scr.ensure(nShards, len(kept), n+1) // slot n = the helping evaluator
	var sprofs []*counting.ShardProf
	if prof {
		sprofs = scr.profBuf(nShards)
	}

	// countShard counts shard si into the shared table buffer. Shard spans
	// are disjoint, so counters never write the same element; claims
	// guarantee one counter per shard.
	countShard := func(si int) error {
		span := plan.Shards[si].Span
		cctx := ctl.ctx
		if prof {
			cctx = counting.WithShardProf(cctx, sprofs[si])
		}
		ts, err := sc.CountShard(cctx, kept[span[0]:span[1]])
		if err != nil {
			return err
		}
		copy(scr.tables[span[0]:span[1]], ts)
		return nil
	}

	work := make(chan int, nShards)
	for _, si := range plan.Order {
		work <- si
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workersBusy.Inc()
			defer workersBusy.Dec()
			var busy time.Duration
			counted := 0
			for si := range work {
				if !scr.claims[si].CompareAndSwap(0, 1) {
					continue // the evaluator got there first
				}
				start := time.Now()
				scr.errs[si] = countShard(si)
				d := time.Since(start)
				scr.durs[si] = d
				scr.workerOf[si] = w
				busy += d
				counted++
				scr.done[si] <- struct{}{}
			}
			// Written once per worker per level, read after the barrier.
			scr.busyNs[w] = int64(busy)
			scr.shardCnt[w] = counted
		}(w)
	}

	// The evaluator's time splits into stall (blocked on a worker-owned
	// shard — the residual hand-off cost), count (shards it claimed and
	// counted itself), and evaluate (spec.eval proper). Exactly one done
	// token is sent per worker-claimed shard and received per evaluator
	// CAS failure, so the cap-1 channels drain every level.
	var stall, helpBusy, evalDur time.Duration
	helped := 0
	if prof {
		a0 = obs.AllocBytes()
	}
	var firstErr error
	for si := 0; si < nShards; si++ {
		if scr.claims[si].CompareAndSwap(0, 1) {
			if firstErr == nil {
				start := time.Now()
				scr.errs[si] = countShard(si)
				d := time.Since(start)
				scr.durs[si] = d
				scr.workerOf[si] = n
				helpBusy += d
				helped++
			} else {
				scr.errs[si] = firstErr // level is doomed; skip the work
			}
		} else if prof {
			ts := time.Now()
			<-scr.done[si]
			stall += time.Since(ts)
		} else {
			<-scr.done[si]
		}
		if firstErr != nil {
			continue
		}
		if scr.errs[si] != nil {
			firstErr = scr.errs[si]
			continue
		}
		span := plan.Shards[si].Span
		if prof {
			te := time.Now()
			for j := span[0]; j < span[1]; j++ {
				spec.eval(kept[j], scr.tables[j])
			}
			evalDur += time.Since(te)
		} else {
			for j := span[0]; j < span[1]; j++ {
				spec.eval(kept[j], scr.tables[j])
			}
		}
	}
	wg.Wait() // end-of-level barrier before the caller decides Truncated

	// Per-shard metric sends batched to one pass after the barrier.
	minedShards.With(spec.algo).Add(int64(nShards))
	for si := 0; si < nShards; si++ {
		if scr.durs[si] > 0 {
			shardSeconds.Observe(scr.durs[si].Seconds())
		}
	}
	if prof {
		scr.busyNs[n] = int64(helpBusy)
		scr.shardCnt[n] = helped
		observePart(lp, obs.PhaseStall, stall, 0)
		observePart(lp, obs.PhaseCount, helpBusy, 0)
		observePart(lp, obs.PhaseEval, evalDur, obs.AllocBytes()-a0)
		for si := 0; si < nShards; si++ {
			lp.AddShard(shardStat(scr.workerOf[si], scr.durs[si], plan.Shards[si].Cost, sprofs[si]))
		}
		for w := 0; w <= n; w++ {
			if scr.shardCnt[w] > 0 {
				ctl.prof.AddWorker(w, time.Duration(scr.busyNs[w]), scr.shardCnt[w])
			}
		}
	}
	ctl.endLevel(lp, len(kept), cells0)
	return firstErr
}

// finishLevelOneShard completes a level whose shard plan collapsed to a
// single shard: pre-checks are done and the budget settled, so this is
// the serial count-then-evaluate tail, profiled as one worker-0 shard.
func (m *Miner) finishLevelOneShard(ctl *runCtl, stats *Stats, spec levelSpec, sc counting.ShardCounter, lp *obs.LevelProf, cells0 int64, kept []itemset.Set, cost int64) error {
	prof := lp != nil
	var sp *counting.ShardProf
	var t0 time.Time
	var a0 int64
	cctx := ctl.ctx
	if prof {
		sp = &counting.ShardProf{}
		cctx = counting.WithShardProf(cctx, sp)
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	tables, err := sc.CountShard(cctx, kept)
	minedShards.With(spec.algo).Inc()
	if prof {
		d := time.Since(t0)
		observePart(lp, obs.PhaseCount, d, obs.AllocBytes()-a0)
		lp.AddShard(shardStat(0, d, cost, sp))
		if d > 0 {
			shardSeconds.Observe(d.Seconds())
		}
	}
	if err != nil {
		ctl.endLevel(lp, len(kept), cells0)
		return err
	}
	if prof {
		t0, a0 = time.Now(), obs.AllocBytes()
	}
	for i, t := range tables {
		spec.eval(kept[i], t)
	}
	if prof {
		observePart(lp, obs.PhaseEval, time.Since(t0), obs.AllocBytes()-a0)
	}
	ctl.endLevel(lp, len(kept), cells0)
	return nil
}

// evenSpans splits [0, n) into at most parts contiguous, near-equal spans.
func evenSpans(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	spans := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*n/parts, (i+1)*n/parts
		if lo < hi {
			spans = append(spans, [2]int{lo, hi})
		}
	}
	return spans
}

// runPool runs fn(0..n-1) across at most workers goroutines and waits for
// all of them.
func runPool(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

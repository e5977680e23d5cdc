// Command ccsprof diffs two mine profiles (ccsmine -profile-json, or the
// profile block of /v1/mine) and names the dominant source of the
// wall-clock gap. Its home use case is the parallel-speedup question the
// benchmarks keep raising: profile the same query at workers=1 and
// workers=8, diff the two, and the report says whether the gap is shard
// skew, pipeline stall, extra counting work per cell, contention on the
// counting work itself, or shards too small to amortize the hand-off.
//
// Usage:
//
//	ccsprof baseline.json candidate.json
//
// The exit status is non-zero when either input is missing or malformed.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"ccs/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsprof:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: ccsprof <baseline.json> <candidate.json>")
	}
	a, err := loadProfile(args[0])
	if err != nil {
		return err
	}
	b, err := loadProfile(args[1])
	if err != nil {
		return err
	}
	return report(out, a, b)
}

// loadProfile reads and validates one profile record. A file that parses
// but lacks the profile shape (no phases, no wall clock) is rejected too —
// a truncated or hand-edited file should fail loudly, not diff as zeros.
func loadProfile(path string) (*obs.ProfileRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec obs.ProfileRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: malformed profile: %v", path, err)
	}
	if rec.WallSeconds <= 0 || len(rec.Phases) == 0 {
		return nil, fmt.Errorf("%s: malformed profile: missing wall_seconds or phases", path)
	}
	// Every shard the cost-based scheduler dispatches carries a positive
	// planned cost, so a record with shards but a zero total was captured
	// by a build that predates the cost model — its skew verdicts would
	// compare against garbage.
	if rec.Shards > 0 && rec.ShardCost == 0 {
		return nil, fmt.Errorf("%s: pre-cost-model profile: %d shards recorded without shard_cost; "+
			"re-capture it with a build that has the cost-based scheduler", path, rec.Shards)
	}
	return &rec, nil
}

// report prints the phase-by-phase diff and the dominant-source verdict.
func report(out io.Writer, a, b *obs.ProfileRecord) error {
	gap := b.WallSeconds - a.WallSeconds
	fmt.Fprintf(out, "baseline:  %s  workers=%d  wall=%.6fs%s\n", a.Name, a.Workers, a.WallSeconds, indexInfo(a))
	fmt.Fprintf(out, "candidate: %s  workers=%d  wall=%.6fs%s\n", b.Name, b.Workers, b.WallSeconds, indexInfo(b))
	fmt.Fprintf(out, "gap: %+.6fs (%+.1f%%)\n\n", gap, 100*gap/a.WallSeconds)

	phases := map[string]bool{}
	for ph := range a.Phases {
		phases[ph] = true
	}
	for ph := range b.Phases {
		phases[ph] = true
	}
	names := make([]string, 0, len(phases))
	for ph := range phases {
		names = append(names, ph)
	}
	// largest absolute delta first: the report leads with what moved
	sort.Slice(names, func(i, j int) bool {
		di := b.Phases[names[i]].Seconds - a.Phases[names[i]].Seconds
		dj := b.Phases[names[j]].Seconds - a.Phases[names[j]].Seconds
		if ai, aj := abs(di), abs(dj); ai != aj {
			return ai > aj
		}
		return names[i] < names[j]
	})
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tbaseline_s\tcandidate_s\tdelta_s\tshare_of_gap")
	var otherDelta float64
	for _, ph := range names {
		d := b.Phases[ph].Seconds - a.Phases[ph].Seconds
		if ph == obs.PhaseOther {
			otherDelta = d
		}
		share := "-"
		if gap != 0 {
			share = fmt.Sprintf("%.1f%%", 100*d/gap)
		}
		fmt.Fprintf(tw, "%s\t%.6f\t%.6f\t%+.6f\t%s\n",
			ph, a.Phases[ph].Seconds, b.Phases[ph].Seconds, d, share)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Attribution: how much of the gap the named phases explain. The
	// profiler's named phases plus "other" sum to the wall on both sides,
	// so the unexplained part of the gap is exactly the "other" delta.
	if gap != 0 {
		attributed := 1 - abs(otherDelta)/abs(gap)
		if attributed < 0 {
			attributed = 0
		}
		fmt.Fprintf(out, "\nattributed to named phases: %.1f%% of the gap\n", 100*attributed)
	}

	fmt.Fprintf(out, "\ncount work: %.6fs -> %.6fs goroutine-seconds (%d -> %d shards)\n",
		a.CountWorkSeconds, b.CountWorkSeconds, a.Shards, b.Shards)
	if a.ShardCost+b.ShardCost > 0 {
		fmt.Fprintf(out, "planned shard cost: %d -> %d units (per-worker cost skew %.2f -> %.2f)\n",
			a.ShardCost, b.ShardCost, plannedCostSkew(a), plannedCostSkew(b))
	}
	if a.Intersections+b.Intersections > 0 {
		fmt.Fprintf(out, "intersections per cell: %.3f -> %.3f (%d -> %d intersections)\n",
			a.IntersectionsPerCell(), b.IntersectionsPerCell(), a.Intersections, b.Intersections)
	}
	if skew := workerSkew(b.WorkerBusySeconds); len(b.WorkerBusySeconds) > 1 {
		fmt.Fprintf(out, "candidate worker skew: %.2f (max busy / mean busy)\n", skew)
	}

	fmt.Fprintf(out, "\ndominant source: %s\n", diagnose(a, b, gap))
	return nil
}

// indexInfo renders a record's vertical-index description ("  index=dense
// (1.2 MiB)"), or "" for records predating the pluggable backend. A
// baseline and candidate mined over different backends explain a gap the
// phase table alone cannot: the same query does less (or more) intersection
// work per list.
func indexInfo(r *obs.ProfileRecord) string {
	if r.Backend == "" {
		return ""
	}
	return fmt.Sprintf("  index=%s (%.1f MiB)", r.Backend, float64(r.IndexBytes)/(1<<20))
}

// Diagnosis thresholds. A skew above maxFairSkew means one worker carried
// well over its share; a mean shard under minShardSeconds cannot amortize
// the per-shard hand-off; intersections per cell grown beyond
// workGrowthFactor mean the kernel did more work for the same tables, and
// goroutine-seconds grown beyond it at equal work mean the counting itself
// ran slower.
const (
	maxFairSkew      = 1.5
	minShardSeconds  = 100e-6
	workGrowthFactor = 1.3
)

// diagnose names the dominant regression source when the candidate run is
// slower. The checks run from most to least specific: a parallel run that
// stalls usually stalls *because* of skew, tiny shards, extra kernel work,
// or slower counting, so those refine a plain stall verdict.
func diagnose(a, b *obs.ProfileRecord, gap float64) string {
	if gap <= 0 {
		return "none: candidate is not slower than baseline"
	}
	stallDelta := b.Phases[obs.PhaseStall].Seconds - a.Phases[obs.PhaseStall].Seconds
	countDelta := b.Phases[obs.PhaseCount].Seconds - a.Phases[obs.PhaseCount].Seconds

	// Find the largest positive phase delta among the named phases.
	worstPhase, worstDelta := "", 0.0
	for _, ph := range []string{obs.PhaseCandgen, obs.PhasePrecheck, obs.PhaseCount, obs.PhaseEval, obs.PhaseStall} {
		if d := b.Phases[ph].Seconds - a.Phases[ph].Seconds; d > worstDelta {
			worstPhase, worstDelta = ph, d
		}
	}
	if worstPhase == "" {
		return "unattributed: no named phase grew (gap is in the residual)"
	}

	if worstPhase == obs.PhaseStall || (stallDelta > 0 && worstPhase == obs.PhaseCount && countDelta <= stallDelta) {
		if skew := workerSkew(b.WorkerBusySeconds); len(b.WorkerBusySeconds) > 1 && skew > maxFairSkew {
			// The planned-cost skew splits the verdict: when the scheduler
			// handed every worker a fair cost share yet busy times diverged,
			// the cost model mispriced the shards; when the planned costs
			// themselves are lopsided, packing had no fair split to find
			// (one prefix run dwarfs the rest).
			if cs := plannedCostSkew(b); cs <= maxFairSkew && b.ShardCost > 0 {
				return fmt.Sprintf("cost model mispricing: planned per-worker shard cost is balanced "+
					"(cost skew %.2f) but busy time is not (skew %.2f); candidateCost misprices these shards",
					cs, skew)
			} else if b.ShardCost > 0 {
				return fmt.Sprintf("shard skew: cost-based packing left per-worker planned cost unbalanced "+
					"(cost skew %.2f, busy skew %.2f); one prefix run dwarfs the rest, and the evaluator "+
					"stalls %.6fs behind it", cs, skew, stallDelta)
			}
			return fmt.Sprintf("shard skew: worker busy times are unbalanced (skew %.2f > %.2f); "+
				"the evaluator stalls %.6fs waiting on the overloaded worker", skew, maxFairSkew, stallDelta)
		}
		if mean := meanShardSeconds(b); b.Shards > 0 && mean < minShardSeconds {
			return fmt.Sprintf("per-shard work too small: mean shard runs %.0fµs (< %.0fµs); "+
				"the hand-off costs more than the counting it overlaps", mean*1e6, minShardSeconds*1e6)
		}
		if ia, ib := a.IntersectionsPerCell(), b.IntersectionsPerCell(); ia > 0 && ib > ia*workGrowthFactor {
			return fmt.Sprintf("kernel work grew: %.3f -> %.3f intersections per cell; "+
				"prefix runs were counted apart instead of once per run", ia, ib)
		}
		if a.CountWorkSeconds > 0 && b.CountWorkSeconds > a.CountWorkSeconds*workGrowthFactor &&
			b.Cells <= a.Cells && b.Intersections <= a.Intersections {
			return fmt.Sprintf("counting contention: the same intersections take %.2fx the goroutine-seconds "+
				"(%.6fs -> %.6fs); workers compete for cores or memory bandwidth",
				b.CountWorkSeconds/a.CountWorkSeconds, a.CountWorkSeconds, b.CountWorkSeconds)
		}
		return fmt.Sprintf("pipeline stall: the evaluator blocks %.6fs on shard hand-off "+
			"with balanced workers — counting is simply not finishing ahead of evaluation", stallDelta)
	}
	return fmt.Sprintf("%s: grew %+.6fs (%.1f%% of the gap)", worstPhase, worstDelta, 100*worstDelta/gap)
}

// plannedCostSkew is max over mean of the per-worker planned shard cost —
// the balance the scheduler *intended*, as opposed to the busy-time skew
// that actually materialized.
func plannedCostSkew(r *obs.ProfileRecord) float64 {
	per := map[int]float64{}
	for _, lv := range r.Levels {
		for _, sh := range lv.Shards {
			per[sh.Worker] += float64(sh.Cost)
		}
	}
	costs := make([]float64, 0, len(per))
	for _, c := range per {
		costs = append(costs, c)
	}
	return workerSkew(costs)
}

// meanShardSeconds is the average shard wall time of a record.
func meanShardSeconds(r *obs.ProfileRecord) float64 {
	var sum float64
	n := 0
	for _, lv := range r.Levels {
		for _, sh := range lv.Shards {
			sum += sh.Seconds
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// workerSkew is max over mean of the non-zero worker busy times.
func workerSkew(busy []float64) float64 {
	var sum, max float64
	n := 0
	for _, s := range busy {
		if s <= 0 {
			continue
		}
		sum += s
		n++
		if s > max {
			max = s
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(n))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

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

// writeProfileJSON writes one mine's profile record to path ("-" = stdout)
// in the format ccsprof reads.
func writeProfileJSON(path string, rec *obs.ProfileRecord) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() {
			//ccslint:ignore droppederr close after successful sync-less write; Encode errors already surfaced
			_ = f.Close()
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// renderProfile prints the -explain-analyze report: the run's phase split,
// then a per-level table with the per-shard detail indented under each
// level, then the per-worker busy/shard attribution.
func renderProfile(out io.Writer, rec *obs.ProfileRecord) error {
	fmt.Fprintf(out, "\nprofile: %s  workers=%d  wall=%.6fs\n", rec.Name, rec.Workers, rec.WallSeconds)
	if rec.Backend != "" {
		fmt.Fprintf(out, "index: backend=%s  %d bytes resident\n", rec.Backend, rec.IndexBytes)
	}

	// phase split, largest share first
	phases := make([]string, 0, len(rec.Phases))
	for ph := range rec.Phases {
		phases = append(phases, ph)
	}
	sort.Slice(phases, func(i, j int) bool {
		if a, b := rec.Phases[phases[i]].Seconds, rec.Phases[phases[j]].Seconds; a != b {
			return a > b
		}
		return phases[i] < phases[j]
	})
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tseconds\t%wall\talloc_bytes\tcells")
	for _, ph := range phases {
		p := rec.Phases[ph]
		pct := 0.0
		if rec.WallSeconds > 0 {
			pct = 100 * p.Seconds / rec.WallSeconds
		}
		fmt.Fprintf(tw, "%s\t%.6f\t%5.1f%%\t%d\t%d\n", ph, p.Seconds, pct, p.AllocBytes, p.Cells)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(rec.Levels) > 0 {
		fmt.Fprintln(out, "\nlevels:")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "phase\tlevel\tcands\tkept\tseconds\tprecheck\tcount\tstall\tevaluate\tcells")
		for _, lv := range rec.Levels {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%d\n",
				lv.Phase, lv.Level, lv.Candidates, lv.Kept, lv.Seconds,
				lv.PrecheckSeconds, lv.CountSeconds, lv.StallSeconds, lv.EvalSeconds, lv.Cells)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	var shardRows bool
	for _, lv := range rec.Levels {
		if len(lv.Shards) > 0 {
			shardRows = true
			break
		}
	}
	if shardRows {
		fmt.Fprintln(out, "\nshards:")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "level\tshard\tworker\tsets\tcells\tseconds\tintersections\tmaterialized")
		for _, lv := range rec.Levels {
			for i, sh := range lv.Shards {
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.6f\t%d\t%d\n",
					lv.Level, i, sh.Worker, sh.Sets, sh.Cells, sh.Seconds,
					sh.Intersections, sh.Materialized)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(rec.WorkerBusySeconds) > 0 {
		fmt.Fprintln(out, "\nworkers:")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "worker\tbusy_seconds\tshards")
		for w, busy := range rec.WorkerBusySeconds {
			fmt.Fprintf(tw, "%d\t%.6f\t%d\n", w, busy, rec.WorkerShards[w])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "count work: %.6f goroutine-seconds over %d shards, skew %.2f\n",
			rec.CountWorkSeconds, rec.Shards, workerSkew(rec.WorkerBusySeconds))
	}
	if rec.Intersections > 0 {
		fmt.Fprintf(out, "counting work: %d intersections (%d materialized), %.3f per cell\n",
			rec.Intersections, rec.Materialized, rec.IntersectionsPerCell())
	}
	return nil
}

// workerSkew is max over mean of the non-zero busy times — 1.0 is a
// perfectly balanced level engine, 2.0 means the slowest worker carried
// twice the average load.
func workerSkew(busy []float64) float64 {
	var sum, max float64
	n := 0
	for _, b := range busy {
		if b <= 0 {
			continue
		}
		sum += b
		n++
		if b > max {
			max = b
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(n))
}

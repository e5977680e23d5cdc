package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccs/internal/obs"
)

// writeRecord marshals one profile record to a temp file and returns the
// path.
func writeRecord(t *testing.T, dir, name string, rec *obs.ProfileRecord) string {
	t.Helper()
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// record builds a minimal valid profile record from a phase map.
func record(workers int, wall float64, phases map[string]float64) *obs.ProfileRecord {
	rec := &obs.ProfileRecord{
		Name:        "bms",
		Workers:     workers,
		Start:       time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		WallSeconds: wall,
		Phases:      map[string]obs.PhaseRecord{},
	}
	for ph, s := range phases {
		rec.Phases[ph] = obs.PhaseRecord{Seconds: s}
	}
	return rec
}

// TestDiffReportAttribution checks the report decomposes the gap phase by
// phase and computes the attributed fraction from the "other" residual.
func TestDiffReportAttribution(t *testing.T) {
	dir := t.TempDir()
	a := record(1, 1.0, map[string]float64{
		obs.PhaseCandgen: 0.2, obs.PhaseCount: 0.7, obs.PhaseEval: 0.08, obs.PhaseOther: 0.02,
	})
	b := record(8, 1.5, map[string]float64{
		obs.PhaseCandgen: 0.2, obs.PhaseStall: 1.2, obs.PhaseEval: 0.07, obs.PhaseOther: 0.03,
	})
	b.WorkerBusySeconds = []float64{0.3, 0.3, 0.3, 0.31}
	b.Shards = 4
	b.ShardCost = 4000
	b.Levels = []obs.LevelRecord{{Level: 2, Shards: []obs.ShardStat{
		{Worker: 0, Seconds: 0.3, Cost: 1000}, {Worker: 1, Seconds: 0.3, Cost: 1000},
		{Worker: 2, Seconds: 0.3, Cost: 1000}, {Worker: 3, Seconds: 0.31, Cost: 1000},
	}}}

	var out bytes.Buffer
	if err := run([]string{writeRecord(t, dir, "a.json", a), writeRecord(t, dir, "b.json", b)}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"gap: +0.500000s",
		"attributed to named phases: 98.0% of the gap",
		"dominant source: pipeline stall",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

// TestDiffDominantSources drives each diagnosis branch.
func TestDiffDominantSources(t *testing.T) {
	dir := t.TempDir()
	base := record(1, 1.0, map[string]float64{obs.PhaseCount: 0.9, obs.PhaseEval: 0.1})

	cases := []struct {
		name string
		mut  func(*obs.ProfileRecord)
		want string
	}{
		{"skew", func(b *obs.ProfileRecord) {
			// One prefix run dwarfed the rest: the planned costs are as
			// lopsided as the busy times, so packing is to blame.
			b.WorkerBusySeconds = []float64{1.3, 0.1, 0.1, 0.1}
			b.Shards = 4
			b.ShardCost = 1600
			b.Levels = []obs.LevelRecord{{Shards: []obs.ShardStat{
				{Worker: 0, Seconds: 1.3, Cost: 1300}, {Worker: 1, Seconds: 0.1, Cost: 100},
				{Worker: 2, Seconds: 0.1, Cost: 100}, {Worker: 3, Seconds: 0.1, Cost: 100},
			}}}
		}, "shard skew"},
		{"cost mispricing", func(b *obs.ProfileRecord) {
			// The scheduler handed each worker an equal planned cost yet
			// one worker ran 13x longer: the cost model mispriced.
			b.WorkerBusySeconds = []float64{1.3, 0.1, 0.1, 0.1}
			b.Shards = 4
			b.ShardCost = 1600
			b.Levels = []obs.LevelRecord{{Shards: []obs.ShardStat{
				{Worker: 0, Seconds: 1.3, Cost: 400}, {Worker: 1, Seconds: 0.1, Cost: 400},
				{Worker: 2, Seconds: 0.1, Cost: 400}, {Worker: 3, Seconds: 0.1, Cost: 400},
			}}}
		}, "cost model mispricing"},
		{"tiny shards", func(b *obs.ProfileRecord) {
			b.WorkerBusySeconds = []float64{0.4, 0.4, 0.4, 0.4}
			b.Shards = 4
			b.ShardCost = 4
			b.Levels = []obs.LevelRecord{{Shards: []obs.ShardStat{
				{Seconds: 50e-6, Cost: 1}, {Seconds: 50e-6, Cost: 1},
				{Seconds: 50e-6, Cost: 1}, {Seconds: 50e-6, Cost: 1},
			}}}
		}, "per-shard work too small"},
		{"kernel work", func(b *obs.ProfileRecord) {
			b.WorkerBusySeconds = []float64{0.4, 0.4, 0.4, 0.4}
			b.Shards = 4
			b.ShardCost = 4000
			b.Cells, b.Intersections = 1000, 900 // baseline: 500 per 1000 cells
			b.Levels = []obs.LevelRecord{{Shards: []obs.ShardStat{
				{Seconds: 0.4, Cost: 1000}, {Seconds: 0.4, Cost: 1000},
				{Seconds: 0.4, Cost: 1000}, {Seconds: 0.4, Cost: 1000},
			}}}
		}, "kernel work grew"},
		{"counting contention", func(b *obs.ProfileRecord) {
			b.WorkerBusySeconds = []float64{0.4, 0.4, 0.4, 0.4}
			b.Shards = 4
			b.ShardCost = 4000
			b.Cells, b.Intersections = 1000, 500 // the baseline's work, done slower
			b.CountWorkSeconds = 1.6
			b.Levels = []obs.LevelRecord{{Shards: []obs.ShardStat{
				{Seconds: 0.4, Cost: 1000}, {Seconds: 0.4, Cost: 1000},
				{Seconds: 0.4, Cost: 1000}, {Seconds: 0.4, Cost: 1000},
			}}}
		}, "counting contention"},
		{"candgen growth", func(b *obs.ProfileRecord) {
			ph := b.Phases[obs.PhaseCandgen]
			ph.Seconds = 1.0
			b.Phases[obs.PhaseCandgen] = ph
			delete(b.Phases, obs.PhaseStall)
		}, "candgen: grew"},
	}
	for _, tc := range cases {
		b := record(8, 2.0, map[string]float64{
			obs.PhaseCount: 0.1, obs.PhaseEval: 0.1, obs.PhaseStall: 1.8,
		})
		tc.mut(b)
		var out bytes.Buffer
		err := run([]string{
			writeRecord(t, dir, "base-"+tc.name+".json", workBase(base, tc.name)),
			writeRecord(t, dir, "cand-"+tc.name+".json", b),
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(out.String(), "dominant source: "+tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}

	// faster candidate: no regression to name
	fast := record(8, 0.5, map[string]float64{obs.PhaseCount: 0.4, obs.PhaseEval: 0.1})
	var out bytes.Buffer
	if err := run([]string{
		writeRecord(t, dir, "base-fast.json", base),
		writeRecord(t, dir, "cand-fast.json", fast),
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "candidate is not slower") {
		t.Errorf("speedup not recognized:\n%s", out.String())
	}
}

// workBase gives the baseline the counting work the two work cases
// compare against: 0.5 intersections per cell and 0.9 goroutine-seconds.
func workBase(base *obs.ProfileRecord, name string) *obs.ProfileRecord {
	if name != "kernel work" && name != "counting contention" {
		return base
	}
	cp := *base
	cp.Phases = base.Phases
	cp.Cells, cp.Intersections = 1000, 500
	cp.CountWorkSeconds = 0.9
	return &cp
}

// TestMalformedInputsRejected checks every malformed-input path exits with
// an error: missing file, invalid JSON, and structurally empty profiles.
func TestMalformedInputsRejected(t *testing.T) {
	dir := t.TempDir()
	good := writeRecord(t, dir, "good.json", record(1, 1.0, map[string]float64{obs.PhaseCount: 1.0}))

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A record with shards but no shard_cost was captured before the
	// cost-based scheduler existed; its skew verdicts would be garbage.
	stale := record(8, 1.0, map[string]float64{obs.PhaseCount: 1.0})
	stale.Shards = 4
	stalePath := writeRecord(t, dir, "stale.json", stale)

	for _, args := range [][]string{
		{},
		{good},
		{good, good, good},
		{filepath.Join(dir, "missing.json"), good},
		{bad, good},
		{good, bad},
		{empty, good},
		{good, empty},
		{stalePath, good},
		{good, stalePath},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	var out bytes.Buffer
	if err := run([]string{good, stalePath}, &out); err == nil ||
		!strings.Contains(err.Error(), "pre-cost-model") {
		t.Errorf("stale profile error = %v, want pre-cost-model mention", err)
	}
}

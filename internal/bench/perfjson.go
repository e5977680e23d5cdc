package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file parses `go test -bench` output into a stable JSON shape
// (BENCH_counting.json) so the counting-kernel baseline can be committed,
// diffed in review, and checked for regressions in CI. cmd/ccsperf drives
// it.

// PerfBenchmark is one benchmark line of a `go test -bench -benchmem` run.
type PerfBenchmark struct {
	// Name is the benchmark path with the GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkCount/bitmap/level=3".
	Name string `json:"name"`
	// Iterations is the b.N the numbers were averaged over.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is -1 when the line carried no allocs figure.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units, e.g. "speedup".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// PerfReport is the file layout of BENCH_counting.json.
type PerfReport struct {
	// Suite labels the run, e.g. "counting+core short".
	Suite string `json:"suite"`
	// GoVersion, CPU and NProc (the core count) record the environment
	// the numbers came from; regressions are only meaningful against a
	// comparable machine, and speedups only at the same core count.
	GoVersion  string          `json:"go_version,omitempty"`
	CPU        string          `json:"cpu,omitempty"`
	NProc      int             `json:"nproc,omitempty"`
	Benchmarks []PerfBenchmark `json:"benchmarks"`
}

// Benchmark returns the named benchmark, or nil.
func (r *PerfReport) Benchmark(name string) *PerfBenchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// Sort orders benchmarks by name so the JSON diffs cleanly across runs.
func (r *PerfReport) Sort() {
	sort.Slice(r.Benchmarks, func(i, j int) bool {
		return r.Benchmarks[i].Name < r.Benchmarks[j].Name
	})
}

// ParseBenchLines reads `go test -bench` output and returns the benchmark
// lines, preserving custom metrics. Header lines (goos/goarch/pkg/cpu) fill
// the report's environment fields; anything else is ignored, so the full
// test output can be piped in unfiltered.
func ParseBenchLines(r io.Reader) (*PerfReport, error) {
	rep := &PerfReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			rep.CPU = strings.TrimSpace(v)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return nil, fmt.Errorf("bench: %w in line %q", err, line)
		}
		if b != nil {
			rep.Benchmarks = append(rep.Benchmarks, *b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkCount/cached/level=3-8  20  96528 ns/op  0.9688 cache-hit-rate  43661 B/op  730 allocs/op
//
// Returns (nil, nil) for Benchmark-prefixed lines that are not results
// (e.g. "BenchmarkX" printed alone when -v interleaves output).
func parseBenchLine(line string) (*PerfBenchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return nil, nil
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so baselines compare across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, nil // not a result line
	}
	b := &PerfBenchmark{Name: name, Iterations: iters, AllocsPerOp: -1}
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if b.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("bad ns/op %q", val)
			}
		case "B/op":
			if b.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op %q", val)
			}
		case "allocs/op":
			if b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op %q", val)
			}
		default:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric %s %q", unit, val)
			}
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = f
		}
	}
	return b, nil
}

// Regression is one benchmark that moved against the baseline.
type Regression struct {
	Name string
	// What regressed ("allocs/op" or "ns/op"), the two values, and
	// whether the check treats it as fatal.
	Unit     string
	Old, New float64
	Fatal    bool
}

func (r Regression) String() string {
	sev := "warn"
	if r.Fatal {
		sev = "FAIL"
	}
	return fmt.Sprintf("%s: %s %s %.4g -> %.4g", sev, r.Name, r.Unit, r.Old, r.New)
}

// Allocation counts are deterministic, so growth past the slack is a hard
// failure; wall-clock is machine-dependent, so ns/op growth only warns.
const (
	allocGrowthFactor = 1.5
	allocGrowthSlack  = 8
	nsGrowthFactor    = 2.0
)

// SpeedupFloorWorkers restricts the speedup floor to the pinned 8-worker
// parallel mode of the large-lattice suite: that is the configuration the
// roadmap holds to a minimum parallel win, and the only one whose worker
// count is comparable across machines.
const SpeedupFloorWorkers = "/parallel-w8"

// CheckSpeedupFloor enforces a once-achieved parallel-speedup floor: every
// baseline benchmark in the pinned 8-worker mode that itself reached the
// floor gates the matching current benchmark. Until a multi-core runner
// commits a baseline at or above the floor the check is dormant — a
// single-core machine cannot achieve the floor, and its honest sub-1x
// baselines must not block anyone — but once such a baseline lands, a
// current run falling below the floor (or dropping the speedup metric)
// fails fatally. Name matching is exact, so short-mode runs (tx=100000 in
// the name) are never judged against full-corpus baselines.
func CheckSpeedupFloor(baseline, current *PerfReport, floor float64) []Regression {
	var out []Regression
	for _, old := range baseline.Benchmarks {
		if !strings.Contains(old.Name, SpeedupFloorWorkers) || old.Metrics["speedup"] < floor {
			continue
		}
		cur := current.Benchmark(old.Name)
		if cur == nil {
			continue
		}
		if got := cur.Metrics["speedup"]; got < floor {
			out = append(out, Regression{
				Name: old.Name, Unit: "speedup",
				Old: old.Metrics["speedup"], New: got,
				Fatal: true,
			})
		}
	}
	return out
}

// Backend tags in benchmark names: the bytes-ratio floor pairs each
// compressed sparse-corpus benchmark with its dense sibling by swapping
// the tag. Only names containing SparseBytesMarker are judged — the dense
// corpus's forced-compressed runs are a ns/op comparison, not a size win.
const (
	SparseBytesMarker    = "Sparse"
	CompressedBackendTag = "/backend=compressed"
	DenseBackendTag      = "/backend=dense"
)

// CheckBytesRatioFloor enforces a once-achieved compression floor on the
// sparse corpus: every baseline benchmark named *Sparse*/backend=compressed
// whose B/op was at or below floor times its dense sibling's gates the
// matching pair in the current run. Until a committed baseline achieves the
// ratio the check is dormant (mirroring CheckSpeedupFloor); once achieved,
// a current run whose compressed/dense B/op ratio exceeds the floor fails
// fatally. The ratio is taken within each report, so machines with
// different allocators or corpus sizes still judge themselves honestly.
func CheckBytesRatioFloor(baseline, current *PerfReport, floor float64) []Regression {
	var out []Regression
	for _, old := range baseline.Benchmarks {
		if !strings.Contains(old.Name, SparseBytesMarker) ||
			!strings.Contains(old.Name, CompressedBackendTag) {
			continue
		}
		denseName := strings.Replace(old.Name, CompressedBackendTag, DenseBackendTag, 1)
		oldDense := baseline.Benchmark(denseName)
		if oldDense == nil || oldDense.BytesPerOp <= 0 ||
			float64(old.BytesPerOp) > floor*float64(oldDense.BytesPerOp) {
			continue // baseline never achieved the floor: dormant
		}
		cur, curDense := current.Benchmark(old.Name), current.Benchmark(denseName)
		if cur == nil || curDense == nil || curDense.BytesPerOp <= 0 {
			continue // suite shrank; absence is not a regression
		}
		if ratio := float64(cur.BytesPerOp) / float64(curDense.BytesPerOp); ratio > floor {
			out = append(out, Regression{
				Name: old.Name, Unit: "bytes-ratio",
				Old: float64(old.BytesPerOp) / float64(oldDense.BytesPerOp), New: ratio,
				Fatal: true,
			})
		}
	}
	return out
}

// CheckRegressions compares a fresh run against a committed baseline.
// Benchmarks present in only one report are skipped: the suite is allowed
// to grow and shrink without invalidating the baseline.
func CheckRegressions(baseline, current *PerfReport) []Regression {
	var out []Regression
	for _, old := range baseline.Benchmarks {
		cur := current.Benchmark(old.Name)
		if cur == nil {
			continue
		}
		if old.AllocsPerOp >= 0 && cur.AllocsPerOp >= 0 {
			limit := int64(float64(old.AllocsPerOp)*allocGrowthFactor) + allocGrowthSlack
			if cur.AllocsPerOp > limit {
				out = append(out, Regression{
					Name: old.Name, Unit: "allocs/op",
					Old: float64(old.AllocsPerOp), New: float64(cur.AllocsPerOp),
					Fatal: true,
				})
			}
		}
		if old.NsPerOp > 0 && cur.NsPerOp > old.NsPerOp*nsGrowthFactor {
			out = append(out, Regression{
				Name: old.Name, Unit: "ns/op",
				Old: old.NsPerOp, New: cur.NsPerOp,
			})
		}
	}
	return out
}

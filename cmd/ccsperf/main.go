// Command ccsperf runs the counting-kernel and mining-algorithm benchmark
// suites and writes each as a stable JSON baseline:
//
//	ccsperf [-out BENCH_counting.json] [-core-out BENCH_core.json] [-short] \
//	        [-check baseline.json] [-core-check baseline.json]
//
// The counting suite (BENCH_counting.json) covers the counting engines
// (BenchmarkCount, level 2-4, every engine, plus the cross-level walk) and
// the TID-list backend comparison: BenchmarkCountSparse (index build + count
// per op on the long-tail corpus, the line the 0.5x compressed/dense
// bytes floor gates) and BenchmarkCountBackendDense (kernel ns/op on a
// full-chunk dense corpus). The core suite (BENCH_core.json) covers the
// end-to-end mining algorithms:
// BenchmarkAlgo in serial and parallel mode, BenchmarkAlgoLarge on the
// large-lattice corpus with pinned 4- and 8-worker modes — the parallel
// lines carry "workers", "speedup", "stall-frac" and "shard-skew" metrics.
// Each report records the core count it ran on (nproc), because speedups
// only compare between machines with the same cores. -short shrinks
// -benchtime AND runs the test binaries with -short, which drops the
// large-lattice corpus from 10^6 to 10^5 baskets (the basket count is
// part of the benchmark name, so short and full runs never
// cross-compare). -check/-core-check
// compare the fresh runs against committed baselines and exit nonzero
// when an allocation count regresses (allocations are deterministic;
// wall-clock differences only warn) or, for the core suite, when an
// 8-worker large-lattice speedup falls below the 2.0x floor a committed
// baseline had achieved.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"ccs/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsperf:", err)
		os.Exit(1)
	}
}

// suiteSpec is one `go test -bench` invocation of a suite.
type suiteSpec struct {
	pkg     string
	pattern string
}

var countingSuite = []suiteSpec{
	{pkg: "./internal/counting", pattern: "^(BenchmarkCount|BenchmarkCountCrossLevel|BenchmarkCountSparse|BenchmarkCountBackendDense)$"},
}

var coreSuite = []suiteSpec{
	{pkg: "./internal/core", pattern: "^(BenchmarkAlgo|BenchmarkAlgoLarge|BenchmarkAlgoSparse)$"},
}

// coreSpeedupFloor is the once-achieved parallel-win floor: when a
// committed core baseline shows an 8-worker speedup at or above this on
// the large-lattice corpus, -core-check fails any run that falls below it.
// See bench.CheckSpeedupFloor for the dormancy rule on single-core
// baselines.
const coreSpeedupFloor = 2.0

// sparseBytesRatioFloor is the once-achieved compression floor: when a
// committed baseline shows a *Sparse*/backend=compressed benchmark at or
// below half its dense sibling's B/op, -check fails any run that gives the
// size win back. See bench.CheckBytesRatioFloor for the pairing and
// dormancy rules.
const sparseBytesRatioFloor = 0.5

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccsperf", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_counting.json", "where to write the counting-suite JSON report (empty = stdout only)")
	coreOutPath := fs.String("core-out", "BENCH_core.json", "where to write the core-suite JSON report (empty = stdout only)")
	short := fs.Bool("short", false, "CI mode: fixed small -benchtime instead of the 1s default")
	check := fs.String("check", "", "counting baseline JSON to compare against; allocation regressions fail the run")
	coreCheck := fs.String("core-check", "", "core baseline JSON to compare against; allocation regressions fail the run")
	benchtime := fs.String("benchtime", "", "override -benchtime passed to go test (default: 20x with -short, 1s otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	bt := *benchtime
	if bt == "" {
		bt = "1s"
		if *short {
			bt = "20x"
		}
	}

	type job struct {
		suiteName    string
		specs        []suiteSpec
		outPath      string
		check        string
		speedupFloor float64 // 0 = no floor for this suite
	}
	jobs := []job{
		{"counting", countingSuite, *outPath, *check, 0},
		{"core", coreSuite, *coreOutPath, *coreCheck, coreSpeedupFloor},
	}
	// Both suites carry sparse-corpus backend benchmarks, so the bytes
	// floor applies to both; it is dormant until a baseline achieves it.
	var checkErrs []error
	for _, j := range jobs {
		report := &bench.PerfReport{Suite: j.suiteName, GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
		if *short {
			report.Suite += " short"
		}
		for _, s := range j.specs {
			rep, err := runSuite(s, bt, *short, out)
			if err != nil {
				return err
			}
			if rep.CPU != "" {
				report.CPU = rep.CPU
			}
			report.Benchmarks = append(report.Benchmarks, rep.Benchmarks...)
		}
		if len(report.Benchmarks) == 0 {
			return fmt.Errorf("no benchmark lines parsed for %s suite — wrong working directory?", j.suiteName)
		}
		report.Sort()

		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if j.outPath != "" {
			if err := os.WriteFile(j.outPath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s (%d benchmarks)\n", j.outPath, len(report.Benchmarks))
		} else {
			if _, err := out.Write(data); err != nil {
				return err
			}
		}
		if j.check != "" {
			// run every suite before failing so one regression does not
			// hide the other suite's report
			if err := checkBaseline(j.check, report, j.speedupFloor, sparseBytesRatioFloor, out); err != nil {
				checkErrs = append(checkErrs, err)
			}
		}
	}
	if len(checkErrs) > 0 {
		return errors.Join(checkErrs...)
	}
	return nil
}

// runSuite executes one go test -bench invocation and parses its output.
// The test binary's stderr passes through so failures are diagnosable.
// -short reaches the test binary itself, not just the benchtime: the
// large-lattice benchmarks pick their corpus size with testing.Short().
func runSuite(s suiteSpec, benchtime string, short bool, out io.Writer) (*bench.PerfReport, error) {
	args := []string{
		"test", "-run", "^$", "-bench", s.pattern,
		"-benchmem", "-benchtime", benchtime,
	}
	if short {
		args = append(args, "-short")
	}
	args = append(args, s.pkg)
	fmt.Fprintf(out, "go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test %s: %w", s.pkg, err)
	}
	return bench.ParseBenchLines(&buf)
}

// checkBaseline loads the committed baseline and fails on fatal
// regressions: allocation growth always; a parallel speedup falling below
// a floor the baseline had achieved (when speedupFloor is set); and a
// sparse-corpus compressed/dense B/op ratio rising above a floor the
// baseline had achieved (when bytesFloor is set).
func checkBaseline(path string, current *bench.PerfReport, speedupFloor, bytesFloor float64, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	baseline := &bench.PerfReport{}
	if err := json.Unmarshal(data, baseline); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	regs := bench.CheckRegressions(baseline, current)
	if speedupFloor > 0 {
		regs = append(regs, bench.CheckSpeedupFloor(baseline, current, speedupFloor)...)
	}
	if bytesFloor > 0 {
		regs = append(regs, bench.CheckBytesRatioFloor(baseline, current, bytesFloor)...)
	}
	fatal := 0
	for _, r := range regs {
		fmt.Fprintln(out, r)
		if r.Fatal {
			fatal++
		}
	}
	if fatal > 0 {
		return fmt.Errorf("%d fatal regression(s) against %s", fatal, path)
	}
	fmt.Fprintf(out, "baseline check ok against %s (%d advisory warnings)\n", path, len(regs))
	return nil
}

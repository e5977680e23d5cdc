package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints, per workload and end-to-end metric, the values of two
// -out files, the change, the metric's bound and a verdict, and per workload
// the failed operations of each. It returns 1 when a metric got worse by
// more than its bound or is missing from either file, when b failed more
// operations than a, or when b holds a wrong answer.
func runCompare(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var sp spec
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    interface{}
	}{{specPath, &sp}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	for _, e := range []struct {
		label string
		env   env
	}{{"a", a.Env}, {"b", b.Env}} {
		fmt.Fprintf(stdout, "# %s: nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d seconds=%g\n",
			e.label, e.env.Nproc, e.env.GOMAXPROCS, e.env.Go, e.env.CPU, e.env.Seed, e.env.Seconds)
	}
	if a.Env.Nproc != b.Env.Nproc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintln(stdout, "# warning: the two runs had different core counts")
	}
	untraced := func(f resultFile) map[string]result {
		out := map[string]result{}
		for _, r := range f.Results {
			if !r.Trace {
				out[r.Workload] = r
			}
		}
		return out
	}
	ra, rb := untraced(a), untraced(b)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tdelta\tbound\tverdict")
	failed := false
	for _, w := range sp.Workloads {
		x, okA := ra[w.Name]
		y, okB := rb[w.Name]
		if !okA && !okB {
			continue
		}
		// Failed operations leave the latency samples, so no bound applies:
		// any rise, or any wrong answer, is a regression.
		verdict := "ok"
		switch {
		case !okA || !okB:
			verdict = "missing"
		case !y.Correct:
			verdict = "wrong answers"
		case y.Failed > x.Failed:
			verdict = "regressed"
		}
		if verdict != "ok" {
			failed = true
		}
		fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t%+d\t0\t%s\n",
			w.Name, x.Failed, x.Attempted, y.Failed, y.Attempted, y.Failed-x.Failed, verdict)
		for _, m := range sp.EndToEnd {
			ma, inA := x.Metrics[m.Name]
			mb, inB := y.Metrics[m.Name]
			if !inA || !inB {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t%.0f%%\tmissing\n", w.Name, m.Name, m.Bound*100)
				failed = true
				continue
			}
			delta := ratio(mb.Value-ma.Value, ma.Value)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "regressed"
				failed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, ma.Value, m.Unit, mb.Value, m.Unit, delta*100, m.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// Command benchmark is the end-to-end benchmark of the /v1/mine service.
// It runs four closed-loop workloads against an in-process server over
// loopback HTTP, checks every answer against a serial reference mine, and
// prints every end-to-end metric by name with its unit. With -trace 1 it
// instead replays the same requests in-process through the calls the
// server's mine handler makes, with a span around each, and prints the
// per-layer metrics derived from those spans. See README.md.
//
//	go run . -workload lattice-deep -seed 7 -seconds 21 -trace 0
//	go run . -compare before.json after.json
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	// The fields below are set only by the smoke test.
	//
	// quick shrinks the lattice corpus, the warm-up and the set-up count,
	// and drops the minimum-mines rule, so the smoke test runs in seconds.
	quick bool
	// corruptReference drops an answer from the references (see
	// corruptReferences), to prove a wrong answer fails the run.
	corruptReference bool
	// breakRequests names an unknown algorithm in the requests (see
	// breakRequests), to prove a failed request fails the run.
	breakRequests bool
}

func (o options) setUps() int {
	if o.quick {
		return 1
	}
	return 5
}

func (o options) warmUp() time.Duration {
	if o.quick {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// minMines is the fewest mines a window may hold: with 100, the p90 has
// ten samples beyond it.
func (o options) minMines() int {
	if o.quick {
		return 1
	}
	return 100
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// windows is how many measured windows an untraced run splits -seconds
// into; each metric is the median of the window values.
const windows = 3

// minCoverage is the least share of a replay the layer spans must cover.
const minCoverage = 0.95

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+workloadNames()+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the inputs")
	fs.Float64Var(&o.seconds, "seconds", 21, "measured seconds per workload (split into three windows when untraced)")
	traceFlag := fs.Int("trace", 0, "1 replays the requests in-process with spans and prints the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write every replay's spans to this JSON file at exit")
	fs.StringVar(&o.out, "out", "", "write the full result, with an environment block, to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description holding each metric's bound (for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	o.trace = *traceFlag == 1
	code, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run.
type result struct {
	Workload  string               `json:"workload"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	Windows   []map[string]float64 `json:"windows,omitempty"`
}

// execute runs the selected workloads, prints their metrics and the final
// JSON line, and returns the exit code: 0, or 1 when an answer was wrong,
// an operation failed, or the run failed.
func execute(o options, stdout io.Writer) (int, error) {
	selected := workloads
	if o.workload != "all" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q (want %s, or all)", o.workload, workloadNames())
		}
		selected = []workload{w}
	}
	fmt.Fprintf(stdout, "# seed=%d nproc=%d GOMAXPROCS=%d %s trace=%v seconds=%g\n",
		o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.trace, o.seconds)
	var results []result
	var traces []*replayTrace
	for _, w := range selected {
		b, err := newBench(w, o.seed, o.quick)
		if err != nil {
			return 1, err
		}
		if o.corruptReference {
			b.corruptReferences()
		}
		if o.breakRequests {
			if err := b.breakRequests(); err != nil {
				return 1, err
			}
		}
		var res result
		if o.trace {
			var ts []*replayTrace
			res, ts, err = b.runTraced(o)
			traces = append(traces, ts...)
		} else {
			res, err = b.runUntraced(o)
		}
		if err != nil {
			return 1, err
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if o.traceOut != "" {
		if err := writeJSON(o.traceOut, traces); err != nil {
			return 1, err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, resultFile{Env: environment(o), Results: results}); err != nil {
			return 1, err
		}
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1, errors.New("wrong answers: see the correct field")
	}
	// A failed operation never enters the latency samples, so failures
	// would read as a faster run; they fail it instead.
	if final.Failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed", final.Failed, final.Attempted)
	}
	return 0, nil
}

func printResult(w io.Writer, r result) {
	defs := endToEndMetrics
	if r.Trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-26s %14.6g %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-14s correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the service sees, measured untraced.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"mine_p50_ms", "ms"},
	{"mine_p90_ms", "ms"},
	{"mines_per_s", "1/s"},
	{"cpu_ms_per_mine", "ms"},
	{"alloc_mb_per_mine", "MB"},
	{"peak_heap_mb", "MB"},
	{"upload_p50_ms", "ms"},
}

// perLayerMetrics come from the traced replay.
var perLayerMetrics = []metricDef{
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_kb", "KB"},
	{"server.http_ms", "ms"},
	{"cql.parse_ms", "ms"},
	{"dataset.read_ms", "ms"},
	{"dataset.index_build_ms", "ms"},
	{"dataset.index_kb", "KB"},
	{"dataset.index_alloc_mb", "MB"},
	{"counting.busy_ms", "ms"},
	{"counting.wall_ms", "ms"},
	{"counting.calls", "count"},
	{"counting.sets", "count"},
	{"counting.cells", "count"},
	{"counting.ns_per_cell", "ns"},
	{"counting.cache_hit_rate", "fraction"},
	{"counting.alloc_mb", "MB"},
	{"core.mine_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.candgen_ms", "ms"},
	{"core.candgen_alloc_mb", "MB"},
	{"core.precheck_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.mallocs", "count"},
	{"core.candidates", "count"},
	{"core.counted_frac", "fraction"},
	{"core.answer_frac", "fraction"},
	{"sched.stall_ms", "ms"},
	{"sched.stall_frac", "fraction"},
	{"sched.shard_skew", "ratio"},
	{"sched.shards", "count"},
	{"sched.parallelism", "ratio"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.coverage", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"trace.profile_wall_ratio", "ratio"},
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// corruptReferences drops the last answer of every reference except
// request 0's, which set-up checks, so the loop's checks must catch it.
func (b *bench) corruptReferences() {
	for _, rs := range b.refs {
		for i := 1; i < len(rs); i++ {
			ans := rs[i].answers
			ref, err := newReference(ans[:len(ans)-1])
			if err == nil {
				rs[i] = ref
			}
		}
	}
}

// breakRequests makes every request except request 0, which set-up sends,
// name an unknown algorithm, so the loop's requests fail.
func (b *bench) breakRequests() error {
	for _, c := range b.clients {
		for i := 1; i < len(c.bodies); i++ {
			req := b.w.requests[i]
			req.Dataset, req.Algo = c.dataset, "no-such-algorithm"
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			c.bodies[i] = body
		}
	}
	return nil
}

// uploads is how many PUTs the upload phase of a non-churn workload times.
const uploads = 15

// runUntraced measures the end-to-end metrics: the median of several fresh
// set-ups, a warm-up, the measured windows, each metric being the median
// of its window values, and for non-churn workloads an upload phase.
func (b *bench) runUntraced(o options) (res result, err error) {
	res = result{Workload: b.w.name, Correct: true}
	var setups []float64
	var ls *liveServer
	for i := 0; i < o.setUps(); i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return res, err
			}
		}
		runtime.GC()
		var d time.Duration
		if ls, d, err = b.setUp(); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { err = errors.Join(err, ls.close()) }()
	setup := time.Duration(median(setups) * float64(time.Second))
	step := func(c *client) { b.step(ls, c) }

	if err := b.rePut(ls); err != nil {
		return res, err
	}
	warm, err := b.drive(o.warmUp(), 0, step)
	if err != nil {
		return res, err
	}
	wrong := warm.wrong
	var wins []window
	for k := 0; k < windows; k++ {
		if err := b.rePut(ls); err != nil {
			return res, err
		}
		w, err := b.measure(o.duration()/windows, o.minMines(), step)
		if err != nil {
			return res, err
		}
		wins = append(wins, w)
		res.Attempted += w.log.ops
		res.Failed += w.log.failed
		wrong += w.log.wrong
	}
	var upload time.Duration
	if !b.w.churn {
		lats, err := b.uploadPhase(ls, uploads)
		if err != nil {
			return res, err
		}
		upload = percentile(lats, 0.5)
	}
	perMetric := map[string][]float64{}
	for _, w := range wins {
		vals := endToEnd(w, setup, upload, b.w.churn)
		res.Windows = append(res.Windows, vals)
		for name, v := range vals {
			perMetric[name] = append(perMetric[name], v)
		}
	}
	meds := map[string]float64{}
	for name, vs := range perMetric {
		meds[name] = median(vs)
	}
	res.Metrics = withUnits(endToEndMetrics, meds)
	res.Correct = wrong == 0
	return res, nil
}

// runTraced measures the per-layer metrics in one window in which each
// client's mines rotate between HTTP, a traced replay and an untraced
// replay of the same requests.
func (b *bench) runTraced(o options) (res result, traces []*replayTrace, err error) {
	res = result{Workload: b.w.name, Trace: true, Correct: true}
	ls, _, err := b.setUp()
	if err != nil {
		return res, nil, err
	}
	defer func() { err = errors.Join(err, ls.close()) }()
	readMs, err := b.replayReads(5)
	if err != nil {
		return res, nil, err
	}
	step := func(c *client) { b.traceStep(ls, c) }
	if err := b.rePut(ls); err != nil {
		return res, nil, err
	}
	warm, err := b.drive(o.warmUp(), 0, step)
	if err != nil {
		return res, nil, err
	}
	if err := b.rePut(ls); err != nil {
		return res, nil, err
	}
	// Three mines per client guarantee some client served a mine each way.
	w, err := b.measure(o.duration(), 3*len(b.clients), step)
	if err != nil {
		return res, nil, err
	}
	if len(w.log.traces) == 0 || len(w.log.untracedLat) == 0 || len(w.log.httpLat) == 0 {
		return res, nil, fmt.Errorf("%s: traced window too short: %d traced, %d untraced, %d HTTP mines",
			b.w.name, len(w.log.traces), len(w.log.untracedLat), len(w.log.httpLat))
	}
	vals := perLayer(w, readMs)
	if vals["trace.coverage"] < minCoverage {
		return res, nil, fmt.Errorf("%s: layer spans cover %.3f of the replay, want at least %.2f", b.w.name, vals["trace.coverage"], minCoverage)
	}
	res.Metrics = withUnits(perLayerMetrics, vals)
	res.Attempted = w.log.ops
	res.Failed = w.log.failed
	res.Correct = warm.wrong+w.log.wrong == 0
	return res, w.log.traces, nil
}

// perLayer aggregates a traced window: per-replay values are medians over
// the traced replays; the rest compare the three ways mines were served.
func perLayer(w window, readMs float64) map[string]float64 {
	per := map[string][]float64{}
	for _, t := range w.log.traces {
		for name, v := range t.Values {
			per[name] = append(per[name], v)
		}
	}
	vals := map[string]float64{}
	for name, vs := range per {
		vals[name] = median(vs)
	}
	untraced := ms(percentile(w.log.untracedLat, 0.5))
	vals["server.http_ms"] = ms(percentile(w.log.httpLat, 0.5)) - untraced
	vals["trace.overhead_frac"] = ratio(ms(percentile(w.log.tracedLat, 0.5)), untraced) - 1
	vals["dataset.read_ms"] = readMs
	vals["runtime.gc_cpu_frac"] = w.gcCPU
	return vals
}

// env records where a result was measured.
type env struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func environment(o options) env {
	return env{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
}

// cpuModel reads the CPU model name on Linux ("unknown" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultFile is the -out file.
type resultFile struct {
	Env     env      `json:"env"`
	Results []result `json:"results"`
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

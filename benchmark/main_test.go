package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickRun runs one workload in quick mode and returns the exit code, the
// printed output and the decoded final line (nil when there is none).
func quickRun(t *testing.T, o options) (int, string, map[string]json.RawMessage) {
	t.Helper()
	o.seed, o.seconds, o.quick = 1, 0.3, true
	var out bytes.Buffer
	code, err := execute(o, &out)
	if err != nil && code == 0 {
		t.Fatalf("execute returned code 0 with error %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]json.RawMessage
	if json.Unmarshal([]byte(lines[len(lines)-1]), &final) != nil {
		final = nil
	}
	return code, out.String(), final
}

// TestEveryMetricPrinted checks BENCHMARK.json against the benchmark's own
// catalog and that every workload prints every metric with its unit, on
// the text lines and in the final JSON line, untraced and traced.
func TestEveryMetricPrinted(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	specDefs := func(names, units []string) []metricDef {
		out := make([]metricDef, len(names))
		for i := range names {
			out[i] = metricDef{names[i], units[i]}
		}
		return out
	}
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range sp.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range sp.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	for _, c := range []struct {
		trace bool
		defs  []metricDef
	}{{false, specDefs(e2eNames, e2eUnits)}, {true, specDefs(layerNames, layerUnits)}} {
		for _, w := range workloads {
			code, text, final := quickRun(t, options{workload: w.name, trace: c.trace})
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, c.trace, code, text)
			}
			if len(final) != 4 {
				t.Fatalf("%s: final line has keys %v, want correct, attempted, failed, metrics\n%s", w.name, final, text)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(final["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(c.defs) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.name, c.trace, len(metrics), len(c.defs))
			}
			for _, d := range c.defs {
				m, ok := metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, c.trace, d.name, m, d.unit)
				}
				if !strings.Contains(text, " "+d.name+" ") {
					t.Errorf("%s trace=%v: no text line for %s", w.name, c.trace, d.name)
				}
			}
		}
	}
}

// TestReplayMatchesHTTP checks that the in-process replay, traced and
// untraced, answers every workload request exactly as the server does.
func TestReplayMatchesHTTP(t *testing.T) {
	for _, w := range workloads {
		b, err := newBench(w, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		ls, _, err := b.setUp()
		if err != nil {
			t.Fatal(err)
		}
		c := b.clients[0]
		for i := range w.requests {
			status, err := ls.do("POST", "/v1/mine", c.bodies[i], &c.buf)
			if err != nil || status != 200 {
				t.Fatalf("%s request %d: status %d, %v", w.name, i, status, err)
			}
			var resp struct {
				Answers [][]uint32 `json:"answers"`
			}
			if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			db := b.versions[c.version].db
			untraced, err := b.replay(c.bodies[i], db, &c.enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := b.replay(c.bodies[i], db, &c.enc, &replayTrace{})
			if err != nil {
				t.Fatal(err)
			}
			if !equalAnswers(untraced, resp.Answers) || !equalAnswers(traced, resp.Answers) {
				t.Errorf("%s request %d: replay answers differ from HTTP (%d HTTP, %d untraced, %d traced)",
					w.name, i, len(resp.Answers), len(untraced), len(traced))
			}
			if !equalAnswers(resp.Answers, b.refs[c.version][i].answers) {
				t.Errorf("%s request %d: HTTP answers differ from the reference", w.name, i)
			}
		}
		if err := ls.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTracedCounterKeepsParallelPath checks that every counting call the
// core makes through the forwarding counter is one shard of its profile:
// the wrapper neither hides the arena path nor adds calls.
func TestTracedCounterKeepsParallelPath(t *testing.T) {
	w, _ := workloadByName("lattice-deep")
	b, err := newBench(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	c := b.clients[0]
	tr := &replayTrace{}
	if _, err := b.replay(c.bodies[0], b.versions[0].db, &c.enc, tr); err != nil {
		t.Fatal(err)
	}
	calls, shards := tr.Values["counting.calls"], tr.Values["sched.shards"]
	if calls != shards || shards < 2 {
		t.Errorf("counting.calls = %v, profile shards = %v; want equal and at least 2", calls, shards)
	}
	if cov := tr.Values["trace.coverage"]; cov < minCoverage {
		t.Errorf("trace.coverage = %v, want at least %v", cov, minCoverage)
	}
}

// TestBrokenRunFails checks that a wrong answer and a failed request each
// fail the run, both in the measured loop and in the traced replays, and
// show in the final line: correct false, or failed above 0.
func TestBrokenRunFails(t *testing.T) {
	for _, c := range []struct {
		name   string
		o      options
		broken func(final map[string]json.RawMessage) bool
	}{
		{"corrupt reference", options{corruptReference: true}, func(f map[string]json.RawMessage) bool {
			return string(f["correct"]) == "false"
		}},
		{"failing requests", options{breakRequests: true}, func(f map[string]json.RawMessage) bool {
			var failed int
			return json.Unmarshal(f["failed"], &failed) == nil && failed > 0
		}},
	} {
		for _, trace := range []bool{false, true} {
			c.o.workload, c.o.trace = "churn-small", trace
			code, text, final := quickRun(t, c.o)
			if code == 0 {
				t.Fatalf("%s, trace=%v: run exited 0\n%s", c.name, trace, text)
			}
			if !c.broken(final) {
				t.Errorf("%s, trace=%v: final line does not show it: correct=%s failed=%s\n%s",
					c.name, trace, final["correct"], final["failed"], text)
			}
		}
	}
}

// TestCompare checks -compare's verdicts against BENCHMARK.json's bounds
// and its failure rule.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		f := resultFile{Results: []result{{Workload: "lattice-deep", Correct: true, Attempted: 300, Failed: failed, Metrics: map[string]metric{}}}}
		for _, d := range endToEndMetrics {
			f.Results[0].Metrics[d.name] = metric{Value: 10, Unit: d.unit}
		}
		f.Results[0].Metrics["mine_p50_ms"] = metric{Value: p50, Unit: "ms"}
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// mine_p50_ms may worsen by 25%: +5% passes, +30% does not; failures
	// may not rise at all, even when the latency improves.
	base, same, slower, failing := write("a.json", 10, 0), write("b.json", 10.5, 0), write("c.json", 13, 0), write("d.json", 5, 1)
	specPath := filepath.Join("..", "BENCHMARK.json")
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slower, 1}, {failing, 1}} {
		var out bytes.Buffer
		if got := runCompare(specPath, base, c.b, &out, os.Stderr); got != c.want {
			t.Errorf("compare with %s: exit %d, want %d\n%s", filepath.Base(c.b), got, c.want, out.String())
		}
	}
}

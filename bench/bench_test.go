package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// toy is a smoke-test run of w: the same shape at a fiftieth of the
// roster and rate, a couple of windows, set-ups and recoveries.
func toy(t *testing.T, w workload) runConfig {
	w.users = max(w.users/50, 40)
	w.rate /= 50
	w.closeEvery /= 5
	seconds := 0.3
	if w.rate > 0 {
		seconds = 3 * 2.2 * w.closeEvery.Seconds() // two closes even at a third of the length
	}
	return runConfig{
		w: w, seed: 3, seconds: seconds, conns: 2, minWindows: 2, setups: 2, recoveries: 2,
		probeBudget: 10 * time.Millisecond, workdir: t.TempDir(), log: io.Discard,
	}
}

// checkMetrics holds a result to a declared metric list: every name
// exactly once (a JSON object cannot repeat one, so: no more, no fewer),
// well-formed, with the declared unit and a finite value.
func checkMetrics(t *testing.T, r result, defs []metricDef, positive bool) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is malformed", d.name)
		}
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestSmoke runs every workload end to end and traced at toy sizes, so
// the benchmark keeps compiling and passing its own correctness checks
// as the API moves.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rc := toy(t, w)
			if rc.w.rate > 0 {
				rc.seconds /= 3
			}
			e2e, err := endToEndRun(rc)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEnd, true)

			rc = toy(t, w)
			tracePath := filepath.Join(rc.workdir, "trace.json")
			layers, err := perLayerRun(rc, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, layers, perLayer, false)
			if w.workers == 0 {
				// Spans of one request nest without overlap on a single
				// node, so self times must add up to the roots' total.
				if pct := layers.Metrics["trace.self_sum_pct"].Value; math.Abs(pct-100) > 5 {
					t.Errorf("self times sum to %.1f%% of the root spans", pct)
				}
			}

			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			if len(spans) == 0 {
				t.Fatal("trace holds no spans")
			}
			ids := map[uint64]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) names parent %d, which is not in the trace", s.ID, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
		})
	}
}

// TestReport pins the contract's last line: one JSON object with exactly
// four keys, on success and — incorrect, failures counted, no metrics,
// non-zero exit — on a failed check.
func TestReport(t *testing.T) {
	lastLine := func(out result, err error) (result, int) {
		var stdout bytes.Buffer
		code := report(&stdout, io.Discard, out, err)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		var r result
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		return r, code
	}
	ok := result{Correct: true, Attempted: 7, Metrics: map[string]metricValue{"setup_s": {1.5, "s"}}}
	if r, code := lastLine(ok, nil); code != 0 || !r.Correct || r.Attempted != 7 || r.Failed != 0 || r.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("success reported as %+v, exit %d", r, code)
	}
	if r, code := lastLine(result{Correct: true, Attempted: 7, Failed: 2, Metrics: ok.Metrics}, errors.New("boom")); code == 0 || r.Correct || r.Attempted != 7 || r.Failed != 2 || len(r.Metrics) != 0 {
		t.Errorf("failure reported as %+v, exit %d", r, code)
	}
	if r, code := lastLine(result{}, errors.New("never started")); code == 0 || r.Correct || r.Attempted != 1 || r.Failed != 1 {
		t.Errorf("early failure reported as %+v, exit %d", r, code)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the driver's own tables in
// step: workloads, end-to-end metrics with unit, direction and bound,
// and per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, driver has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%s), driver has %q (%s)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, driver has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: declared %+v, driver has %s [%s] %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: declared bound does not match the driver's %v", d.name, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python says 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestSelfTimes checks a layer's self time is its duration minus what
// its children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Name: "kid", Start: 10_000, End: 40_000},
		{ID: 3, Parent: 1, Name: "kid", Start: 30_000, End: 60_000},
		{ID: 4, Parent: 3, Name: "leaf", Start: 35_000, End: 45_000},
	}
	self, _, rootSum := selfTimes(spans)
	if self["root"] != 50 || self["kid"] != 25 || self["leaf"] != 10 || rootSum != 100_000 {
		t.Errorf("self times %v, root sum %v", self, rootSum)
	}
}

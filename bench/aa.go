package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"pptd/internal/stats"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the acceptance check computes a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / stats.Median(xs)
}

// runOnce runs this binary as a fresh process — CPU time and heap are
// per-process numbers — and parses the contract's last line, plus the
// demoted metrics the run printed on standard error.
func runOnce(self, workload string, seed uint64, seconds float64) (map[string]metricValue, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out, log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, r.Correct, r.Failed)
	}
	for _, line := range strings.Split(log.String(), "\n") {
		if raw, ok := strings.CutPrefix(line, ungatedPrefix); ok {
			ungated := map[string]metricValue{}
			if err := json.Unmarshal([]byte(raw), &ungated); err != nil {
				return nil, fmt.Errorf("%s seed %d: ungated metrics: %w", workload, seed, err)
			}
			for name, v := range ungated {
				r.Metrics[name] = v
			}
		}
	}
	return r.Metrics, nil
}

// aaCheck runs two interleaved sets (A, B) of n full runs of every
// workload with the same binary, run i of both sets on seed+i, and holds
// the benchmark to its own bounds by the acceptance rule of the benchmark
// contract: for every gated metric set B's median may not be worse than
// set A's by more than the bound, and neither set's spread across seeds
// may exceed it — except setup_s, whose spread the contract reports but
// does not gate. Demoted metrics are tabulated the same way without a
// verdict. The table goes to stdout in the form README.md commits.
func aaCheck(n int, seed uint64, seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for side := range sets {
				// Alternate which set goes first so neither always runs
				// on a box the other just warmed up.
				side = (side + i) % 2
				metrics, err := runOnce(self, w.name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintln(stderr, "bench: A/A run failed:", err)
					return 1
				}
				for name, v := range metrics {
					k := key{w.name, name}
					sets[side][k] = append(sets[side][k], v.Value)
				}
				raw, _ := json.Marshal(metrics)
				fmt.Fprintf(stderr, "bench: A/A %s seed %d set %c: %s\n", w.name, seed+uint64(i), 'A'+side, raw)
			}
		}
	}
	breaches := 0
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), demoted...) {
			k := key{w.name, d.name}
			a, b := stats.Median(sets[0][k]), stats.Median(sets[1][k])
			worse := (b - a) / a
			if !d.lower {
				worse = (a - b) / a
			}
			sa, sb := spread(sets[0][k]), spread(sets[1][k])
			bound, verdict := "—", "demoted"
			if d.bound > 0 {
				bound, verdict = fmt.Sprintf("%.0f%%", 100*d.bound), "ok"
				if worse > d.bound || (d.name != "setup_s" && math.Max(sa, sb) > d.bound) {
					verdict = "BREACH"
					breaches++
				}
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %s | %s |\n",
				w.name, d.name, a, b, 100*worse, 100*sa, 100*sb, bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "bench: A/A check: %d breach(es)\n", breaches)
		return 1
	}
	return 0
}

// Command bench is the repository's benchmark (BENCHMARK.json): four
// durable-collector workloads driven over loopback HTTP against nodes
// built with pptd.NewNode, ten end-to-end numbers per workload (the ones
// that repeat are gated), per-layer probes and a traced run. README.md in
// this directory has the metric and workload tables, the run rules and
// the reference numbers.
//
//	bash bench/run.sh --workload ledger-json --seed 1 --seconds 14 --trace 0
//	bash bench/run.sh --workload cluster-2w --seed 1 --seconds 14 --trace 1
//	bash bench/run.sh --aa 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one metric: BENCHMARK.json must list the same
// names, units and directions (bench_test.go checks it does).
type metricDef struct {
	name, unit string
	lower      bool    // lower is better
	bound      float64 // end-to-end only: allowed worsening, share of the parent's median
}

// Every run measures the ten numbers a device, the campaign owner or the
// operator sees. endToEnd are the ones this benchmark gates: printed with
// --trace 0 and held to their bound. demoted are the ones that could not
// repeat within 0.15 on every workload (README.md, "Demoted", has the
// spread that demoted each): measured the same way, printed with
// --trace 1 among the per-layer metrics, never gated.
var (
	endToEnd = []metricDef{
		{"setup_s", "s", true, 0.15},
		{"live_heap_mb", "MB", true, 0.05},
	}
	demoted = []metricDef{
		{name: "submit_per_s", unit: "1/s"},
		{name: "submit_p50_ms", unit: "ms", lower: true},
		{name: "submit_p90_ms", unit: "ms", lower: true},
		{name: "close_ms", unit: "ms", lower: true},
		{name: "truths_read_ms", unit: "ms", lower: true},
		{name: "recover_s", unit: "s", lower: true},
		{name: "cpu_ms_per_ksub", unit: "ms", lower: true},
		{name: "truth_mae", unit: "value", lower: true},
	}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Sampling of a full run (README.md, "Run rules").
const (
	fullMinWindows  = 12
	fullSetups      = 3
	fullRecoveries  = 5
	fullProbeBudget = time.Second
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: ledger-json, aggregate-binary, close-under-load or cluster-2w")
		seed    = fs.Uint64("seed", 1, "seed of the fleet: device qualities, noise, ground truth and the Poisson schedule")
		seconds = fs.Float64("seconds", 14, "length of the measurement phase")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer probes plus a traced run at a third of the length")
		workdir = fs.String("workdir", ".bench_build", "where the traced run writes trace-<workload>.json, and parent of the run's working directory (state dirs, crash images), which is created fresh and removed afterwards")
		aa      = fs.Int("aa", 0, "A/A check: two interleaved sets of N runs of every workload, exit non-zero on any breach")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa > 0 {
		return aaCheck(*aa, *seed, *seconds, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	// Every run works in a fresh directory of its own and removes it at
	// the end, so runs never see each other's state.
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer func() {
		// Leave the disk as found: delete, then flush, so the next run's
		// first fsyncs do not pay for this run's deletes.
		_ = os.RemoveAll(dir)
		syscall.Sync()
	}()
	rc := runConfig{
		w:           w,
		seed:        *seed,
		seconds:     *seconds,
		conns:       min(runtime.NumCPU(), 4),
		minWindows:  fullMinWindows,
		setups:      fullSetups,
		recoveries:  fullRecoveries,
		probeBudget: fullProbeBudget,
		workdir:     dir,
		log:         stderr,
	}
	fmt.Fprintf(stderr, "bench: workload %s seed %d: %d users x %d objects, C=%d connections, GOMAXPROCS=%d, %s, state on %s\n",
		w.name, *seed, w.users, w.objects, rc.conns, runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))

	var out result
	if *trace == 0 {
		out, err = endToEndRun(rc)
	} else {
		out, err = perLayerRun(rc, filepath.Join(*workdir, "trace-"+w.name+".json"))
	}
	return report(stdout, stderr, out, err)
}

// report prints the run for people on stderr and the contract's line
// last on stdout. A failed check is still reported — as an incorrect run
// with its failures counted against its attempts and no metrics — and
// exits non-zero.
func report(stdout, stderr io.Writer, out result, err error) int {
	code := 0
	if err != nil {
		fmt.Fprintln(stderr, "bench: FAILED:", err)
		out = result{Attempted: max(out.Attempted, 1), Failed: max(out.Failed, 1), Metrics: map[string]metricValue{}}
		code = 1
	}
	printMetrics(stderr, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// ungatedPrefix starts the line of standard error that carries a full
// run's demoted metrics, which --trace 0 may not print on standard
// output: the A/A check reads them from there.
const ungatedPrefix = "bench: ungated "

// endToEndRun is the untraced run the gated metrics come from.
func endToEndRun(rc runConfig) (result, error) {
	res, err := run(rc)
	out := result{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		return out, err
	}
	collect := func(defs []metricDef) (map[string]metricValue, error) {
		vals := map[string]metricValue{}
		for _, d := range defs {
			v, ok := res.e2e[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("metric %s = %v: every end-to-end metric must be a positive number", d.name, v)
			}
			vals[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		return vals, nil
	}
	if out.Metrics, err = collect(endToEnd); err != nil {
		return out, err
	}
	ungated, err := collect(demoted)
	if err != nil {
		return out, err
	}
	printMetrics(rc.log, result{Metrics: ungated})
	raw, err := json.Marshal(ungated)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(rc.log, "%s%s\n", ungatedPrefix, raw)
	for name, v := range res.gen {
		fmt.Fprintf(rc.log, "  (%s %.4f)\n", name, v)
	}
	out.Correct = true
	return out, nil
}

// printMetrics lists every metric by name with its unit, for people.
func printMetrics(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.Attempted > 0 {
		fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	}
}

// fsType names the filesystem the state lives on, so a tmpfs run (where
// fsync is free) is recognisable in the log.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type 0x%X", uint32(st.Type))
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pptd"
)

func TestRunRejectsBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-users", "0"}, &buf); err == nil {
		t.Error("zero users accepted")
	}
	if err := run([]string{"-windows", "0"}, &buf); err == nil {
		t.Error("zero windows accepted")
	}
	if err := run([]string{"-objects", "-1"}, &buf); err == nil {
		t.Error("negative objects accepted")
	}
}

// TestRunStreamsEndToEnd drives a small streaming campaign through the
// in-process server and checks the per-window report came out.
func TestRunStreamsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-users", "12", "-objects", "6", "-windows", "3",
		"-shards", "2", "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"streaming campaign",
		"privacy: epsilon=",
		"stream done: 3 windows,",
		"cumulative privacy: max per-user epsilon",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunEnforcesBudget streams more windows than the budget affords and
// expects refusals instead of failures.
func TestRunEnforcesBudget(t *testing.T) {
	// Compute the per-window epsilon at the CLI's default parameters and
	// grant a budget that affords exactly one window, so later windows
	// must see refused submissions.
	acct, err := pptd.NewAccountant(1.5)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := pptd.NewMechanism(2)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := acct.Epsilon(mech, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run([]string{
		"-users", "8", "-objects", "4", "-windows", "3",
		"-budget", fmt.Sprintf("%f", 1.5*eps), "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, " 0 submissions refused by budget") {
		t.Errorf("expected refusals under a one-window budget:\n%s", out)
	}
}

// TestRunWritesBenchAndMetricsArtifacts exercises the observability
// flags: -bench-out must produce a parseable BENCH_*.json with coherent
// counts and latency quantiles, and -metrics-out must dump the server's
// Prometheus exposition with the key ingest series.
func TestRunWritesBenchAndMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCH_stream_ingest.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var buf bytes.Buffer
	err := run([]string{
		"-users", "8", "-objects", "4", "-windows", "2",
		"-shards", "2", "-seed", "7", "-request-id", "ci-run",
		"-bench-out", benchPath, "-metrics-out", metricsPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bench artifact does not parse: %v\n%s", err, raw)
	}
	if rep.Name != "stream_ingest" {
		t.Errorf("Name = %q, want stream_ingest", rep.Name)
	}
	if rep.Submissions != 16 { // 8 users x 2 windows
		t.Errorf("Submissions = %d, want 16", rep.Submissions)
	}
	if rep.Claims != 64 { // 4 objects per submission
		t.Errorf("Claims = %d, want 64", rep.Claims)
	}
	if rep.ClaimsPerSecond <= 0 || rep.IngestSeconds <= 0 {
		t.Errorf("throughput not recorded: claims/s = %v over %vs",
			rep.ClaimsPerSecond, rep.IngestSeconds)
	}
	if rep.SubmitLatency.Count != rep.Submissions {
		t.Errorf("SubmitLatency.Count = %d, want %d", rep.SubmitLatency.Count, rep.Submissions)
	}
	if rep.WindowCloseLatency.Count != 2 {
		t.Errorf("WindowCloseLatency.Count = %d, want 2", rep.WindowCloseLatency.Count)
	}
	for _, l := range []BenchLatency{rep.SubmitLatency, rep.WindowCloseLatency} {
		if !(l.P50Seconds <= l.P99Seconds && l.P99Seconds <= l.P999Seconds) {
			t.Errorf("quantiles out of order: p50=%v p99=%v p999=%v",
				l.P50Seconds, l.P99Seconds, l.P999Seconds)
		}
		if l.MaxSeconds <= 0 {
			t.Errorf("MaxSeconds = %v, want > 0", l.MaxSeconds)
		}
	}
	if rep.Config.Users != 8 || rep.Config.Windows != 2 || rep.Config.Shards != 2 {
		t.Errorf("Config = %+v, want users=8 windows=2 shards=2", rep.Config)
	}

	scrape, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"pptd_stream_claims_ingested_total 64",
		"pptd_stream_windows_closed_total 2",
		"pptd_http_requests_total",
		"pptd_http_request_duration_seconds_bucket",
	} {
		if !strings.Contains(string(scrape), series) {
			t.Errorf("metrics dump missing %q", series)
		}
	}
}

// TestRunBudgetBelowOneWindow starves the whole fleet from the first
// window: the driver must report the refusals, not fail on the empty
// window close.
func TestRunBudgetBelowOneWindow(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-users", "5", "-objects", "3", "-windows", "2",
		"-budget", "0.0001", "-seed", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no window ever closed") {
		t.Errorf("missing all-refused summary:\n%s", buf.String())
	}
}

// TestRunStateDirPersistsBudgets runs the driver twice against the same
// state directory: the fleet's cumulative epsilon must carry over, so a
// budget that afforded the first run's windows refuses the rerun's
// submissions entirely.
func TestRunStateDirPersistsBudgets(t *testing.T) {
	acct, err := pptd.NewAccountant(1.5)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := pptd.NewMechanism(2)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := acct.Epsilon(mech, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{
		"-users", "8", "-objects", "4", "-windows", "2",
		"-budget", fmt.Sprintf("%f", 2.5*eps), // affords exactly two windows
		"-seed", "9", "-state-dir", dir,
	}

	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "stream done: 2 windows") ||
		!strings.Contains(first.String(), " 0 submissions refused by budget") {
		t.Fatalf("first run:\n%s", first.String())
	}

	// Same fleet, same directory: every device is already at the cap, so
	// all 8*2 submissions must be refused — the restart did not hand the
	// budget back. Window numbering continues from the recovered state.
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "16 submissions refused by budget") {
		t.Fatalf("second run did not refuse the exhausted fleet:\n%s", out)
	}
	if !strings.Contains(out, "stream done: 4 windows") {
		t.Fatalf("second run did not resume the window counter:\n%s", out)
	}
}

// TestRunDurabilityFlags drives the in-process server with the
// group-commit and snapshot-cadence knobs set: the run must complete
// and the rerun must resume from the recovered state (the claim WAL
// plus every-other-window snapshots cover all windows between them).
func TestRunDurabilityFlags(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-users", "6", "-objects", "4", "-windows", "3", "-seed", "5",
		"-state-dir", dir,
		"-snapshot-every", "2",
		"-commit-batch", "8",
	}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "stream done: 3 windows") {
		t.Fatalf("first run:\n%s", first.String())
	}
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "stream done: 6 windows") {
		t.Fatalf("second run did not resume the recovered window counter:\n%s", second.String())
	}
}

// TestRunRejectsStateDirWithExternalAddr checks the flag guard.
func TestRunRejectsStateDirWithExternalAddr(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-addr", "http://example.invalid", "-state-dir", t.TempDir()}, &buf); err == nil {
		t.Error("external -addr with -state-dir accepted")
	}
}

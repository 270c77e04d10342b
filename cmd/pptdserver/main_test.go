package main

import (
	"strings"
	"testing"
)

// TestMethodByName: -method names a streaming estimator; the mean and
// median baselines are refused with an error pointing at the offline
// tools that run them.
func TestMethodByName(t *testing.T) {
	for _, name := range []string{"crh", "gtm", "catd"} {
		if got, err := estimatorByName(name); err != nil || got != name {
			t.Errorf("estimatorByName(%q) = %q, %v", name, got, err)
		}
	}
	for _, name := range []string{"mean", "median"} {
		_, err := estimatorByName(name)
		if err == nil || !strings.Contains(err.Error(), "cmd/pptd") || !strings.Contains(err.Error(), "internal/eval") {
			t.Errorf("estimatorByName(%q) = %v, want a refusal naming cmd/pptd and internal/eval", name, err)
		}
	}
	if _, err := estimatorByName("unknown"); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestRunRejectsBadFlags checks that bad flag sets fail before any
// listener opens.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-badflag"}, "not defined"},
		{[]string{"-method", "nope"}, "unknown method"},
		{[]string{"-method", "median"}, "runs offline only"},
		{[]string{"-objects", "0"}, "NumObjects = 0"},
		{[]string{"-lambda1", "0", "-delta", "0", "-budget", "10"}, "EpsilonBudget without Lambda1 accounting"},
		{[]string{"-lambda1", "0"}, "Delta = 0.3 without Lambda1 accounting"},
		{[]string{"-lambda1", "0", "-delta", "0", "-state-dir", t.TempDir()}, "-state-dir needs accounting"},
		{[]string{"-stream"}, "not defined"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunRejectsClusterFlags checks that the cluster roles inherit the
// node's refusals: a bad -worker or -coordinator flag set fails before
// any listener opens and before any worker is contacted.
func TestRunRejectsClusterFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"coordinator with state dir",
			[]string{"-coordinator", "http://127.0.0.1:1", "-state-dir", t.TempDir()},
			"WithClusterCoordinator conflicts with WithPersistence"},
		{"coordinator with residency cap",
			[]string{"-coordinator", "http://127.0.0.1:1", "-max-resident-users", "10"},
			"-max-resident-users needs -state-dir"},
		{"coordinator with unknown method",
			[]string{"-coordinator", "http://127.0.0.1:1", "-method", "em"},
			"unknown method em"},
		{"worker with window interval",
			[]string{"-worker", "-window-interval", "1s"},
			"WithClusterWorker conflicts with WithWindowInterval"},
		{"worker shipping without state dir",
			[]string{"-worker", "-ship-to", t.TempDir()},
			"WithSegmentShipping requires WithPersistence"},
		{"worker shipping to a URL",
			[]string{"-worker", "-ship-to", "http://127.0.0.1:1"},
			"shipping writes to a directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

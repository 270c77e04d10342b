package main

import (
	"strings"
	"testing"
)

func TestMethodByName(t *testing.T) {
	for _, name := range []string{"crh", "gtm", "catd", "mean", "median"} {
		m, err := methodByName(name)
		if err != nil || m == nil {
			t.Errorf("methodByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := methodByName("unknown"); err == nil {
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
		{[]string{"-objects", "0"}, "numObjects = 0"},
		{[]string{"-budget", "10"}, "need -stream"},
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
			"-max-resident-users needs -stream and -state-dir"},
		{"coordinator with unknown method",
			[]string{"-coordinator", "http://127.0.0.1:1", "-method", "em"},
			"unknown method em"},
		{"worker with window interval",
			[]string{"-worker", "-window-interval", "1s"},
			"WithClusterWorker conflicts with WithWindowInterval"},
		{"worker shipping without state dir",
			[]string{"-worker", "-ship-to", t.TempDir()},
			"WithSegmentShipping requires WithPersistence"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

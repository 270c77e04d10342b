package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
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
		{[]string{"-lambda1", "0", "-delta", "0", "-lambda2", "0"}, "-lambda2 = 0"},
		{[]string{"-lambda2", "NaN"}, "-lambda2 = NaN"},
		{[]string{"-window-interval", "-1m"}, "-window-interval = -1m0s"},
		{[]string{"-stream"}, "not defined"},
	} {
		if err := run(context.Background(), tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
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
			if err := run(context.Background(), tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunReportsLostStateOnShutdown drives run to a cancelled shutdown
// after its -state-dir was removed under the running node: the final
// snapshot cannot be written, and run must say so instead of returning
// nil.
func TestRunReportsLostStateOnShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", addr, "-objects", "2", "-state-dir", dir}) }()

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if resp, err := http.Get("http://" + addr + "/v1/stream/campaign"); err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never answered")
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "final stream snapshot") {
			t.Fatalf("run after losing its state directory = %v, want the final snapshot's failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pptd"
	"pptd/internal/crowd"
)

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-badflag"},
		{"-users", "0"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunRejectsBadStreamArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-windows", "-1"},
		{"-windows", "0"},
		{"-windows", "2", "-wire", "xml"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunAgainstLocalServer: by default the fleet runs a one-shot
// campaign, one window that every device lands in.
func TestRunAgainstLocalServer(t *testing.T) {
	node, err := pptd.NewNode(pptd.WithName("test"), pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 5, Lambda2: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()

	if err := run([]string{"-server", ts.URL, "-users", "8", "-seed", "4", "-timeout", "30s"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	res, err := node.Stream().Truths()
	if err != nil {
		t.Fatalf("the window did not close: %v", err)
	}
	if res.Window != 1 || res.WindowClaims != 8*5 {
		t.Fatalf("closed window %d with %d claims, want window 1 with 40", res.Window, res.WindowClaims)
	}
}

func TestRunUnreachableServer(t *testing.T) {
	err := run([]string{"-server", "http://127.0.0.1:1", "-users", "2", "-timeout", "2s"}, io.Discard)
	if err == nil {
		t.Fatal("unreachable server accepted")
	}
	// The failure should come from the campaign fetch, not a panic.
	if !strings.Contains(err.Error(), "fetch campaign") {
		t.Logf("error (acceptable): %v", err)
	}
}

// The streaming fleet below runs six devices over four objects for
// three windows, against nodes accounted at lambda1 1.5 and delta 0.3.
const (
	fleetUsers   = 6
	fleetObjects = 4
)

type windowRow struct{ claims, refused int }

var (
	fullWindow    = windowRow{fleetUsers * fleetObjects, 0}
	starvedWindow = windowRow{0, fleetUsers}
)

// epsilonPerWindow is what one window charges each device under
// accountedStream.
func epsilonPerWindow(t *testing.T) float64 {
	t.Helper()
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
	return eps
}

func accountedStream(objects int, budget float64) pptd.StreamConfig {
	return pptd.StreamConfig{
		NumObjects: objects, Lambda1: 1.5, Lambda2: 2, Delta: 0.3,
		EpsilonBudget: budget,
	}
}

// streamFleet serves node and streams three windows of the fleet to it
// on wire. It returns each window's (claims, refused) row and the
// fleet's output, and fails the test unless the claims went out on wire.
func streamFleet(t *testing.T, node *pptd.Node, users int, wire string) ([]windowRow, string) {
	t.Helper()
	var framed atomic.Int64 // submissions sent as binary frames
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == pptd.ContentTypeClaims {
			framed.Add(1)
		}
		node.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	var out strings.Builder
	err := run([]string{
		"-server", ts.URL, "-users", strconv.Itoa(users), "-windows", "3",
		"-wire", wire, "-seed", "3", "-timeout", "30s",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if (framed.Load() > 0) != (wire == pptd.WireBinary) {
		t.Fatalf("-wire %s sent %d binary frames", wire, framed.Load())
	}
	var rows []windowRow
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] == "window" {
			continue
		}
		var r windowRow
		if _, err := fmt.Sscan(f[1], &r.claims); err != nil {
			t.Fatalf("claims column %q: %v", f[1], err)
		}
		if _, err := fmt.Sscan(f[2], &r.refused); err != nil {
			t.Fatalf("refused column %q: %v", f[2], err)
		}
		rows = append(rows, r)
	}
	return rows, out.String()
}

// checkStream streams the fleet to a fresh node with the given budget on
// both claim wires and checks the per-window rows and the total refused.
func checkStream(t *testing.T, budget float64, want []windowRow, refused int) {
	t.Helper()
	for _, wire := range []string{pptd.WireJSON, pptd.WireBinary} {
		t.Run(wire, func(t *testing.T) {
			node, err := pptd.NewNode(pptd.WithStreamConfig(accountedStream(fleetObjects, budget)))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = node.Close() }()
			got, out := streamFleet(t, node, fleetUsers, wire)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("per-window (claims, refused) = %v, want %v\n%s", got, want, out)
			}
			summary := fmt.Sprintf("streamed 3 windows, %d submissions refused by budget", refused)
			if !strings.Contains(out, summary) {
				t.Fatalf("output missing %q:\n%s", summary, out)
			}
		})
	}
}

// TestRunStreamsEndToEnd: without a budget every device lands every
// window, on both claim wires.
func TestRunStreamsEndToEnd(t *testing.T) {
	checkStream(t, 0, []windowRow{fullWindow, fullWindow, fullWindow}, 0)
}

// TestRunEnforcesBudget: a budget of 1.5 per-window epsilons is spent by
// the first window, so every device is refused in windows 2 and 3, and
// those windows still close from carried statistics.
func TestRunEnforcesBudget(t *testing.T) {
	checkStream(t, 1.5*epsilonPerWindow(t),
		[]windowRow{fullWindow, starvedWindow, starvedWindow}, 2*fleetUsers)
}

// TestRunBudgetBelowOneWindow: below one window's epsilon every device
// is refused from the start, and the fleet reports the empty windows
// instead of failing on them.
func TestRunBudgetBelowOneWindow(t *testing.T) {
	checkStream(t, 0.5*epsilonPerWindow(t),
		[]windowRow{starvedWindow, starvedWindow, starvedWindow}, 3*fleetUsers)
}

// startCluster serves a coordinator in front of n durable worker nodes,
// all on cfg. It returns the coordinator and, per worker URL, the number
// of claim submissions the coordinator routed to it.
func startCluster(t *testing.T, n int, cfg pptd.StreamConfig) (*pptd.Node, map[string]*atomic.Int64) {
	t.Helper()
	urls := make([]string, n)
	routed := make(map[string]*atomic.Int64, n)
	for i := range urls {
		w, err := pptd.NewNode(
			pptd.WithStreamConfig(cfg),
			pptd.WithClusterWorker(),
			pptd.WithPersistence(t.TempDir()),
		)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(func() { _ = w.Close() })
		count := new(atomic.Int64)
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == crowd.PathStreamClaims {
				count.Add(1)
			}
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		routed[ts.URL] = count
	}
	coord, err := pptd.NewNode(pptd.WithStreamConfig(cfg), pptd.WithClusterCoordinator(urls...))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return coord, routed
}

// TestRunClusterEndToEnd streams twelve devices over six objects through
// a coordinator in front of three durable workers: every window lands
// every claim, and each worker receives exactly the submissions of the
// devices the coordinator's ring says it owns — each device once per
// window. (The ring hashes the workers' random test ports, so which
// worker owns how many devices varies from run to run; one may own none.)
func TestRunClusterEndToEnd(t *testing.T) {
	const users, objects, workers, windows = 12, 6, 3, 3
	for _, wire := range []string{pptd.WireJSON, pptd.WireBinary} {
		t.Run(wire, func(t *testing.T) {
			coord, routed := startCluster(t, workers, accountedStream(objects, 0))
			got, out := streamFleet(t, coord, users, wire)
			full := windowRow{users * objects, 0}
			if want := []windowRow{full, full, full}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("per-window (claims, refused) = %v, want %v\n%s", got, want, out)
			}
			want := make(map[string]int64, workers)
			for i := 0; i < users; i++ {
				want[coord.Coordinator().Ring().Owner(fmt.Sprintf("sim-user-%03d", i))] += windows
			}
			for url, c := range routed {
				if c.Load() != want[url] {
					t.Errorf("worker %s was routed %d submissions, want %d (its devices x %d windows)", url, c.Load(), want[url], windows)
				}
				delete(want, url)
			}
			if len(want) != 0 {
				t.Fatalf("the ring routes to workers %v the cluster does not have", want)
			}
		})
	}
}

// TestRunClusterBudgetRefusals: through a two-worker cluster, a budget
// that covers exactly one window refuses every later submission
// cluster-wide, each worker's ledger holding the line for its own users,
// and the later windows still close with no fresh claims.
func TestRunClusterBudgetRefusals(t *testing.T) {
	coord, _ := startCluster(t, 2, accountedStream(fleetObjects, 1.5*epsilonPerWindow(t)))
	got, out := streamFleet(t, coord, fleetUsers, pptd.WireJSON)
	if want := []windowRow{fullWindow, starvedWindow, starvedWindow}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("per-window (claims, refused) = %v, want %v\n%s", got, want, out)
	}
	if !strings.Contains(out, "streamed 3 windows, 12 submissions refused by budget") {
		t.Fatalf("expected 12 refusals (6 users x 2 later windows):\n%s", out)
	}
}

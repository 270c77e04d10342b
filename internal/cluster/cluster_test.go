package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// equivTol is the tolerance for cluster-vs-single-node equivalence.
// The merge concatenates per-worker statistics instead of interleaving
// them in arrival order, so floating-point summation order may differ;
// everything else is bitwise identical.
const equivTol = 1e-9

// estimatorsUnderTest mirrors the stream package's CI matrix hook: with
// PPTD_STREAM_ESTIMATOR set, only that estimator runs.
func estimatorsUnderTest(t *testing.T) []string {
	t.Helper()
	if env := os.Getenv("PPTD_STREAM_ESTIMATOR"); env != "" {
		if !stream.KnownEstimator(env) {
			t.Fatalf("PPTD_STREAM_ESTIMATOR = %q: want one of %v", env, stream.EstimatorNames)
		}
		return []string{env}
	}
	return stream.EstimatorNames
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// testWorker is one worker node with a real HTTP listener on a stable
// address, a durable store, and a DirSink archive it ships segments to.
type testWorker struct {
	addr    string
	url     string
	dir     string
	shipDir string

	worker *testShard
	store  *streamstore.Store
	srv    *http.Server
}

// testShard is what NewNode(WithClusterWorker(), WithSegmentShipping(..))
// assembles, built by hand so these tests stay inside the package: a
// stream server with the cluster RPCs mounted next to the shared front
// door, plus a shipper the tests drive explicitly via SyncOnce.
type testShard struct {
	srv     *crowd.StreamServer
	shipper *Shipper // nil without a sink
}

func newTestShard(t *testing.T, name string, cfg stream.Config, store *streamstore.Store, sink Sink) *testShard {
	t.Helper()
	srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: name, Engine: cfg, Persistence: store})
	if err != nil {
		t.Fatalf("start worker %s: %v", name, err)
	}
	sh := &testShard{srv: srv}
	if sink != nil {
		if sh.shipper, err = NewShipper(store, sink, 0, nil); err != nil {
			t.Fatalf("shipper for %s: %v", name, err)
		}
	}
	return sh
}

func (sh *testShard) Handler() http.Handler {
	mux := http.NewServeMux()
	crowd.RegisterStream(mux, sh.srv, 0)
	sh.srv.RegisterCluster(mux)
	return mux
}

func (sh *testShard) Close() error { return sh.srv.Close() }

// startWorker boots a durable worker with segment shipping to a local
// archive, driven manually (SyncOnce).
func startWorker(t *testing.T, cfg stream.Config, name string) *testWorker {
	t.Helper()
	tw := &testWorker{dir: t.TempDir(), shipDir: t.TempDir()}
	store, err := streamstore.Open(tw.dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	sink, err := NewDirSink(tw.shipDir)
	if err != nil {
		t.Fatalf("dir sink: %v", err)
	}
	tw.worker, tw.store = newTestShard(t, name, cfg, store, sink), store
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	tw.addr = ln.Addr().String()
	tw.url = "http://" + tw.addr
	tw.serve(t, ln)
	return tw
}

func (tw *testWorker) serve(t *testing.T, ln net.Listener) {
	t.Helper()
	srv := &http.Server{Handler: tw.worker.Handler()}
	tw.srv = srv
	go func() {
		_ = srv.Serve(ln)
	}()
}

// relisten rebinds the worker's handler on its original address after
// stopListening, simulating the node coming back.
func (tw *testWorker) relisten(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the old listener's port can take a moment to free
		ln, err = net.Listen("tcp", tw.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten %s: %v", tw.addr, err)
	}
	tw.serve(t, ln)
}

// stopListening closes the HTTP listener, making the worker unreachable
// while its engine and store stay intact (a network partition).
func (tw *testWorker) stopListening(t *testing.T) {
	t.Helper()
	if err := tw.srv.Close(); err != nil {
		t.Fatalf("stop listener: %v", err)
	}
}

// closeAll gracefully shuts down the worker and its store.
func (tw *testWorker) closeAll(t *testing.T) {
	t.Helper()
	_ = tw.srv.Close()
	if err := tw.worker.Close(); err != nil {
		t.Errorf("close worker: %v", err)
	}
	if err := tw.store.Close(); err != nil {
		t.Errorf("close store: %v", err)
	}
}

// claimsFor generates the deterministic claim set of one user in one
// window: user u reports on roughly half the objects with values that
// depend on (user, object, window).
func claimsFor(u, window, numObjects int) []stream.Claim {
	var claims []stream.Claim
	for o := 0; o < numObjects; o++ {
		if (u+o)%2 == 0 {
			claims = append(claims, stream.Claim{
				Object: o,
				Value:  10 * math.Sin(float64(u*31+o*7+window*13)),
			})
		}
	}
	return claims
}

func userID(u int) string { return fmt.Sprintf("user-%03d", u) }

// submits reports whether user u participates in the given window.
func submits(u, window int) bool { return (u+window)%5 != 0 }

func toSubmission(id string, claims []stream.Claim) crowd.Submission {
	return crowd.Submission{ClientID: id, Claims: claims}
}

// requireEquivalent asserts the cluster's merged window result matches
// the single-node reference within equivTol.
func requireEquivalent(t *testing.T, window int, ref, got crowd.StreamWindowInfo) {
	t.Helper()
	if got.Window != ref.Window {
		t.Fatalf("window %d: cluster closed window %d, single node %d", window, got.Window, ref.Window)
	}
	if len(got.Truths) != len(ref.Truths) {
		t.Fatalf("window %d: %d truths, want %d", window, len(got.Truths), len(ref.Truths))
	}
	for o := range ref.Truths {
		if got.Covered[o] != ref.Covered[o] {
			t.Fatalf("window %d object %d: covered = %v, want %v", window, o, got.Covered[o], ref.Covered[o])
		}
		if diff := math.Abs(got.Truths[o] - ref.Truths[o]); diff > equivTol {
			t.Fatalf("window %d object %d: truth %v vs single-node %v (diff %g)",
				window, o, got.Truths[o], ref.Truths[o], diff)
		}
	}
	if len(got.Weights) != len(ref.Weights) {
		t.Fatalf("window %d: %d weights, want %d", window, len(got.Weights), len(ref.Weights))
	}
	for id, w := range ref.Weights {
		gw, ok := got.Weights[id]
		if !ok {
			t.Fatalf("window %d: missing weight for %s", window, id)
		}
		if diff := math.Abs(gw - w); diff > equivTol {
			t.Fatalf("window %d user %s: weight %v vs single-node %v (diff %g)", window, id, gw, w, diff)
		}
	}
	if got.ActiveUsers != ref.ActiveUsers || got.WindowClaims != ref.WindowClaims || got.TotalClaims != ref.TotalClaims {
		t.Fatalf("window %d: active/claims = %d/%d/%d, want %d/%d/%d", window,
			got.ActiveUsers, got.WindowClaims, got.TotalClaims,
			ref.ActiveUsers, ref.WindowClaims, ref.TotalClaims)
	}
	if (got.Privacy == nil) != (ref.Privacy == nil) {
		t.Fatalf("window %d: privacy report presence = %v, want %v", window, got.Privacy != nil, ref.Privacy != nil)
	}
	if ref.Privacy != nil {
		if got.Privacy.TrackedUsers != ref.Privacy.TrackedUsers ||
			got.Privacy.ExhaustedUsers != ref.Privacy.ExhaustedUsers ||
			got.Privacy.MaxWindows != ref.Privacy.MaxWindows {
			t.Fatalf("window %d: privacy %+v, want %+v", window, got.Privacy, ref.Privacy)
		}
		if math.Abs(got.Privacy.MaxCumulative-ref.Privacy.MaxCumulative) > equivTol {
			t.Fatalf("window %d: MaxCumulative %v, want %v", window, got.Privacy.MaxCumulative, ref.Privacy.MaxCumulative)
		}
	}
}

func baseConfig(estimator string) stream.Config {
	return stream.Config{
		NumObjects: 5,
		Estimator:  estimator,
		Decay:      0.8,
		Lambda1:    0.5,
		Lambda2:    1.2,
		Delta:      1e-5,
	}
}

// TestClusterEquivalence is the core property of the whole subsystem:
// per estimator, a 3-worker cluster publishes — window after window —
// exactly the estimates one single-node engine produces over the same
// claims, including after one worker is killed and recovered from its
// shipped segment archive.
func TestClusterEquivalence(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		t.Run(est, func(t *testing.T) {
			const (
				numUsers   = 24
				numWindows = 6
				killAfter  = 3 // recover a worker from shipped segments after this window
			)
			cfg := baseConfig(est)

			// Single-node reference over the identical claim stream.
			refCfg := cfg
			ref, err := stream.New(refCfg)
			if err != nil {
				t.Fatalf("reference engine: %v", err)
			}
			defer func() {
				_ = ref.Close()
			}()

			workerCfg := cfg
			workerCfg.ClaimWAL = true // claims must be as durable as charges for kill-and-recover
			workers := make([]*testWorker, 3)
			for i := range workers {
				workers[i] = startWorker(t, workerCfg, fmt.Sprintf("w%d", i))
			}
			urls := make([]string, len(workers))
			byURL := make(map[string]*testWorker, len(workers))
			for i, w := range workers {
				urls[i] = w.url
				byURL[w.url] = w
			}
			// A dedicated transport lets the test drop pooled connections
			// to the crashed worker after its restart; without that, the
			// first post-recovery request can land on a stale keep-alive
			// socket and surface a transport error.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			coord, err := NewCoordinator(Config{
				Name: "equiv", Engine: cfg, Workers: urls,
				HTTPClient: &http.Client{Transport: tr},
			})
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			defer func() {
				_ = coord.Close()
			}()

			ctx := context.Background()
			recovered := false
			for window := 1; window <= numWindows; window++ {
				for u := 0; u < numUsers; u++ {
					if !submits(u, window) {
						continue
					}
					id := userID(u)
					claims := claimsFor(u, window, cfg.NumObjects)
					if _, _, err := ref.Ingest(id, claims); err != nil {
						t.Fatalf("window %d: reference ingest %s: %v", window, id, err)
					}
					if _, err := coord.Submit(ctx, toSubmission(id, claims)); err != nil {
						t.Fatalf("window %d: cluster submit %s: %v", window, id, err)
					}
				}
				refRes, err := ref.CloseWindow()
				if err != nil {
					t.Fatalf("window %d: reference close: %v", window, err)
				}
				got, err := coord.CloseWindow()
				if err != nil {
					t.Fatalf("window %d: cluster close: %v", window, err)
				}
				requireEquivalent(t, window, crowd.WindowInfo(refRes), got)

				if window == killAfter && !recovered {
					recovered = true
					// Ship every worker's durable state, then crash one
					// (listener down, no graceful close — its unshipped
					// in-memory state is lost, but the post-commit snapshot
					// was already shipped) and recover it from the archive
					// on the same address.
					victim := byURL[coord.Ring().Owner(userID(0))]
					for _, w := range workers {
						if err := w.worker.shipper.SyncOnce(); err != nil {
							t.Fatalf("ship: %v", err)
						}
					}
					victim.stopListening(t)
					// The crashed worker's engine and store are deliberately
					// leaked (a graceful close would ship again); recovery
					// must work from the archive alone.
					store, err := streamstore.Open(victim.shipDir)
					if err != nil {
						t.Fatalf("open shipped archive: %v", err)
					}
					recoveredWorker := newTestShard(t, "recovered", workerCfg, store, nil)
					t.Cleanup(func() {
						_ = recoveredWorker.Close()
						_ = store.Close()
					})
					if got, want := recoveredWorker.srv.Engine().Window(), window; got != want {
						t.Fatalf("recovered worker at %d closed windows, want %d", got, want)
					}
					victim.worker = recoveredWorker
					victim.relisten(t)
					tr.CloseIdleConnections()
				}
			}

			for _, w := range workers {
				w.closeAll(t)
			}
		})
	}
}

// TestClusterExhaustedUserSurvivesRecovery: a user who exhausted their
// privacy budget keeps being rejected by the cluster after the worker
// holding their ledger is crashed and recovered from shipped segments —
// and routing stability guarantees the recovered worker is still the
// one consulted.
func TestClusterExhaustedUserSurvivesRecovery(t *testing.T) {
	cfg := baseConfig(stream.EstimatorCRH)
	probe, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("probe engine: %v", err)
	}
	epsWindow := probe.EpsilonPerWindow()
	_ = probe.Close()
	if epsWindow <= 0 {
		t.Fatalf("accounting not enabled (epsWindow = %v)", epsWindow)
	}
	cfg.EpsilonBudget = 2.5 * epsWindow // affords exactly two windows

	workerCfg := cfg
	workerCfg.ClaimWAL = true
	workers := make([]*testWorker, 2)
	for i := range workers {
		workers[i] = startWorker(t, workerCfg, fmt.Sprintf("w%d", i))
	}
	urls := []string{workers[0].url, workers[1].url}
	coord, err := NewCoordinator(Config{Name: "budget", Engine: cfg, Workers: urls})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()

	ctx := context.Background()
	const alice = "alice"
	filler := "bob"
	if coord.Ring().Owner(alice) == coord.Ring().Owner(filler) {
		// Keep the filler on the other worker so the victim crash only
		// affects alice's shard.
		for i := 0; ; i++ {
			filler = fmt.Sprintf("bob-%d", i)
			if coord.Ring().Owner(filler) != coord.Ring().Owner(alice) {
				break
			}
		}
	}
	claims := []stream.Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}
	for window := 1; window <= 2; window++ {
		if _, err := coord.Submit(ctx, toSubmission(alice, claims)); err != nil {
			t.Fatalf("window %d: alice: %v", window, err)
		}
		// The filler spends only one window of budget, so it stays under
		// the cap while alice burns through hers.
		if window == 1 {
			if _, err := coord.Submit(ctx, toSubmission(filler, claims)); err != nil {
				t.Fatalf("window %d: filler: %v", window, err)
			}
		}
		if _, err := coord.CloseWindow(); err != nil {
			t.Fatalf("window %d: close: %v", window, err)
		}
	}
	_, err = coord.Submit(ctx, toSubmission(alice, claims))
	if !errors.Is(err, stream.ErrBudgetExhausted) {
		t.Fatalf("third window submit: err = %v, want ErrBudgetExhausted", err)
	}

	// Crash alice's worker and recover it from the shipped archive.
	var victim *testWorker
	owner := coord.Ring().Owner(alice)
	for _, w := range workers {
		if w.url == owner {
			victim = w
		}
	}
	if err := victim.worker.shipper.SyncOnce(); err != nil {
		t.Fatalf("ship: %v", err)
	}
	victim.stopListening(t)
	store, err := streamstore.Open(victim.shipDir)
	if err != nil {
		t.Fatalf("open shipped archive: %v", err)
	}
	recoveredWorker := newTestShard(t, "recovered", workerCfg, store, nil)
	t.Cleanup(func() {
		_ = recoveredWorker.Close()
		_ = store.Close()
	})
	victim.worker = recoveredWorker
	victim.relisten(t)

	// The first request after the restart may land on a stale pooled
	// connection to the dead listener (surfacing as worker_unavailable);
	// that is the documented retry contract, so retry briefly.
	for attempt := 0; ; attempt++ {
		_, err = coord.Submit(ctx, toSubmission(alice, claims))
		if errors.Is(err, stream.ErrBudgetExhausted) {
			break
		}
		if !errors.Is(err, crowd.ErrWorkerUnavailable) || attempt >= 50 {
			t.Fatalf("submit after recovery: err = %v, want ErrBudgetExhausted", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The filler, who still has budget, keeps working through the same
	// cluster.
	if _, err := coord.Submit(ctx, toSubmission(filler, claims)); err != nil {
		t.Fatalf("filler after recovery: %v", err)
	}
}

// TestClusterEmptyWindow: a cluster-wide close with no claims anywhere
// fails with ErrEmptyWindow and advances nothing — exactly the
// single-node contract.
func TestClusterEmptyWindow(t *testing.T) {
	cfg := stream.Config{NumObjects: 3}
	workers := []*testWorker{startWorker(t, cfg, "w0"), startWorker(t, cfg, "w1")}
	defer func() {
		for _, w := range workers {
			w.closeAll(t)
		}
	}()
	coord, err := NewCoordinator(Config{Name: "empty", Engine: cfg, Workers: []string{workers[0].url, workers[1].url}})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()
	// An unset HistoryWindows gets the engine's default ring depth.
	if coord.histCap != stream.DefaultHistoryWindows {
		t.Errorf("coordinator retains %d windows, want the engine default %d", coord.histCap, stream.DefaultHistoryWindows)
	}
	if _, err := coord.CloseWindow(); !errors.Is(err, stream.ErrEmptyWindow) {
		t.Fatalf("empty close: err = %v, want ErrEmptyWindow", err)
	}
	if coord.Window() != 0 {
		t.Fatalf("window advanced to %d on an empty close", coord.Window())
	}
	for _, w := range workers {
		if got := w.worker.srv.Engine().Window(); got != 0 {
			t.Fatalf("worker advanced to %d closed windows on an empty cluster close", got)
		}
	}

	// One claim on one worker is enough: the cluster closes, and the
	// worker that stayed empty advances with it.
	if _, err := coord.Submit(context.Background(), crowd.Submission{
		ClientID: "solo", Claims: []crowd.Claim{{Object: 0, Value: 1}},
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	info, err := coord.CloseWindow()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if info.Window != 1 || coord.Window() != 1 {
		t.Fatalf("closed window = %d (coordinator at %d), want 1", info.Window, coord.Window())
	}
	for _, w := range workers {
		if got := w.worker.srv.Engine().Window(); got != 1 {
			t.Fatalf("worker at %d closed windows after forced close, want 1", got)
		}
	}
}

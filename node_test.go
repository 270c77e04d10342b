package pptd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pptd"
	"pptd/internal/stream"
)

// TestNodeOptionValidation drives the option matrix: conflicting and
// half-configured sets must fail with a typed error wrapping
// ErrNodeConfig that names the offending option or StreamConfig field —
// never a silent default, never a panic.
func TestNodeOptionValidation(t *testing.T) {
	// The engine-owned rules are asserted through NewNode: each is one
	// StreamConfig field.
	type sc = pptd.StreamConfig
	cfg := pptd.WithStreamConfig
	cases := []struct {
		name string
		opts []pptd.Option
		want string // substring of the error
	}{
		{"no servers", nil, "configure a stream engine"},
		// Mean and median run offline only (cmd/pptd, internal/eval).
		{"batch-only method with stream",
			[]pptd.Option{cfg(sc{NumObjects: 5, Estimator: "mean"})},
			`unknown estimator "mean"`},
		{"window interval without stream",
			[]pptd.Option{pptd.WithLambda2(2), pptd.WithWindowInterval(time.Second)},
			"configure a stream engine"},
		{"persistence without any campaign",
			[]pptd.Option{pptd.WithLambda2(2), pptd.WithPersistence(t.TempDir())},
			"configure a stream engine"},
		{"resident cap without persistence",
			[]pptd.Option{cfg(sc{NumObjects: 5, MaxResidentUsers: 8}), pptd.WithLambda2(2)},
			"requires WithPersistence"},
		{"lambda2 conflicts with target",
			[]pptd.Option{pptd.WithStreamEngine(5), pptd.WithLambda2(2),
				pptd.WithDataQuality(1), pptd.WithPrivacyTarget(0.5, 0.3)},
			"WithLambda2 conflicts with WithPrivacyTarget"},
		{"target without data quality",
			[]pptd.Option{pptd.WithStreamEngine(5), pptd.WithPrivacyTarget(0.5, 0.3)},
			"WithPrivacyTarget requires WithDataQuality"},
		{"data quality without target",
			[]pptd.Option{pptd.WithStreamEngine(5), pptd.WithDataQuality(1)},
			"WithDataQuality requires WithPrivacyTarget"},
		{"budget without accounting",
			[]pptd.Option{cfg(sc{NumObjects: 5, EpsilonBudget: 10})},
			"EpsilonBudget without Lambda1 accounting"},
		// A private one-shot campaign is an accounted window: it must
		// publish the rate devices perturb with.
		{"batch without a perturbation rate",
			[]pptd.Option{cfg(sc{NumObjects: 5, Lambda1: 1, Delta: 0.3})},
			"Lambda2 = 0 with accounting enabled"},
		{"stream engine conflicts with stream config",
			[]pptd.Option{pptd.WithStreamEngine(5), pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 5})},
			"WithStreamConfig configured twice"},
		{"target conflicts with stream config accounting",
			[]pptd.Option{
				cfg(sc{NumObjects: 5, Lambda1: 1, Lambda2: 2, Delta: 0.3}),
				pptd.WithDataQuality(1), pptd.WithPrivacyTarget(0.5, 0.3)},
			"WithPrivacyTarget conflicts with WithStreamConfig"},
		{"lambda2 conflicts with stream config lambda2",
			[]pptd.Option{
				cfg(sc{NumObjects: 5, Lambda2: 2}),
				pptd.WithLambda2(3)},
			"WithLambda2 conflicts with WithStreamConfig.Lambda2"},
		{"explicit claim WAL without persistence",
			[]pptd.Option{cfg(sc{NumObjects: 5, Lambda1: 1, Lambda2: 2, Delta: 0.3, ClaimWAL: true})},
			"ClaimWAL requires WithPersistence"},
		{"explicit claim WAL without accounting",
			[]pptd.Option{cfg(sc{NumObjects: 5, Lambda2: 2, ClaimWAL: true})},
			"ClaimWAL requires accounting"},
		{"double stream", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithStreamEngine(5)},
			"configured twice"},
		{"bad batch objects", []pptd.Option{pptd.WithStreamEngine(0)}, "NumObjects = 0"},
		{"bad stream objects", []pptd.Option{pptd.WithStreamEngine(-1)}, "NumObjects = -1"},
		{"bad decay", []pptd.Option{cfg(sc{NumObjects: 5, Decay: 1.5})}, "Decay = 1.5"},
		{"bad shards", []pptd.Option{cfg(sc{NumObjects: 5, NumShards: -1})}, "NumShards = -1"},
		{"bad history", []pptd.Option{cfg(sc{NumObjects: 5, HistoryWindows: -1})}, "HistoryWindows = -1"},
		{"bad lambda2", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithLambda2(math.NaN())}, "WithLambda2"},
		{"bad target eps", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithPrivacyTarget(-1, 0.3)}, "eps = -1"},
		{"bad target delta", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithPrivacyTarget(0.5, 1)}, "delta = 1"},
		{"empty persistence dir", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithPersistence("")}, "empty state directory"},
		{"shipping to a URL", []pptd.Option{pptd.WithStreamEngine(5), pptd.WithSegmentShipping("http://host:9000")},
			"shipping writes to a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := pptd.NewNode(tc.opts...)
			if err == nil {
				_ = n.Close()
				t.Fatalf("NewNode succeeded, want error containing %q", tc.want)
			}
			if !errors.Is(err, pptd.ErrNodeConfig) {
				t.Errorf("error %v does not wrap ErrNodeConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestNodeRefusesBadStreamConfigBeforeOpening pins the contract for the
// path every deployment configures its engine through: a StreamConfig
// the engine's own validation refuses fails NewNode with an error that
// is both ErrNodeConfig and the engine's ErrBadConfig, names the field,
// and comes before the state directory is created — on a durable node
// and on a cluster coordinator (whose worker is never contacted) alike.
func TestNodeRefusesBadStreamConfigBeforeOpening(t *testing.T) {
	cases := []struct {
		name  string
		cfg   pptd.StreamConfig
		field string
	}{
		{"decay out of range", pptd.StreamConfig{NumObjects: 5, Decay: 1.5}, "Decay"},
		{"negative shards", pptd.StreamConfig{NumObjects: 5, NumShards: -1}, "NumShards"},
		{"no objects", pptd.StreamConfig{}, "NumObjects"},
		{"unknown estimator", pptd.StreamConfig{NumObjects: 5, Estimator: "bogus"}, `estimator "bogus"`},
		{"accounting without delta", pptd.StreamConfig{NumObjects: 5, Lambda1: 1, Lambda2: 2}, "Delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			for role, opt := range map[string]pptd.Option{
				"durable node": pptd.WithPersistence(dir),
				"coordinator":  pptd.WithClusterCoordinator("http://127.0.0.1:1"),
			} {
				n, err := pptd.NewNode(pptd.WithStreamConfig(tc.cfg), opt)
				if err == nil {
					_ = n.Close()
					t.Fatalf("%s: NewNode accepted %+v", role, tc.cfg)
				}
				if !errors.Is(err, pptd.ErrNodeConfig) || !errors.Is(err, stream.ErrBadConfig) {
					t.Errorf("%s: error %v: want both ErrNodeConfig and stream.ErrBadConfig", role, err)
				}
				if !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s: error %q does not name %s", role, err, tc.field)
				}
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("state directory touched before the config was refused: stat err = %v", err)
			}
		})
	}
}

// TestNodeBuildsEveryOldConfiguration checks that the options path can
// express what the config structs could: a one-shot campaign with its
// estimator (one window of the stream), stream with
// shards/decay/accounting/budget, and explicit rates.
func TestNodeBuildsEveryOldConfiguration(t *testing.T) {
	cases := []struct {
		name string
		opts []pptd.Option
	}{
		{"batch only", []pptd.Option{
			pptd.WithName("b"), pptd.WithLambda2(2),
			pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 7, Estimator: pptd.StreamEstimatorGTM})}},
		{"stream only", []pptd.Option{
			pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects: 7, NumShards: 2, Decay: 0.8, HistoryWindows: 4}),
			pptd.WithLambda2(2)}},
		{"stream with target accounting", []pptd.Option{
			pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects: 7, EpsilonBudget: 2}),
			pptd.WithDataQuality(1.5), pptd.WithPrivacyTarget(0.5, 0.3)}},
		{"escape hatch with explicit rates", []pptd.Option{
			pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects: 7, Lambda1: 1.5, Lambda2: 2, Delta: 0.3,
				DisableCarryover: true})}},
		{"batch-only with derived lambda2", []pptd.Option{
			pptd.WithStreamEngine(7), pptd.WithDataQuality(1),
			pptd.WithPrivacyTarget(0.5, 0.3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := pptd.NewNode(tc.opts...)
			if err != nil {
				t.Fatalf("NewNode: %v", err)
			}
			if err := n.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestNodeDerivesLambda2FromPrivacyTarget checks the WithPrivacyTarget
// path publishes the lambda2 the accountant derives and charges windows
// at (close to) the target epsilon.
func TestNodeDerivesLambda2FromPrivacyTarget(t *testing.T) {
	const lambda1, eps, delta = 1.5, 0.5, 0.3
	acct, err := pptd.NewAccountant(lambda1)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := acct.MechanismForEpsilon(eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	n, err := pptd.NewNode(
		pptd.WithStreamEngine(5),
		pptd.WithDataQuality(lambda1),
		pptd.WithPrivacyTarget(eps, delta),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()

	info := n.Stream().Campaign()
	if got, want := info.Lambda2, mech.Lambda2(); math.Abs(got-want) > 1e-12 {
		t.Errorf("published lambda2 = %v, accountant derives %v", got, want)
	}
	if math.Abs(info.EpsilonPerWindow-eps) > 1e-9 {
		t.Errorf("epsilon per window = %v, want target %v", info.EpsilonPerWindow, eps)
	}
	if info.Delta != delta {
		t.Errorf("delta = %v, want %v", info.Delta, delta)
	}
}

// TestStreamConfigOptionReusable: NewNode fills the fields its other
// options own into its own copy of the WithStreamConfig value, so one
// option value builds any number of nodes, each with the rates given
// beside it.
func TestStreamConfigOptionReusable(t *testing.T) {
	opt := pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 3, Lambda1: 1.5, Delta: 0.3})
	for _, lambda2 := range []float64{2, 4} {
		n, err := pptd.NewNode(opt, pptd.WithLambda2(lambda2), pptd.WithPersistence(t.TempDir()))
		if err != nil {
			t.Fatalf("node with lambda2 = %v: %v", lambda2, err)
		}
		got := n.Stream().Campaign().Lambda2
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if got != lambda2 {
			t.Errorf("node built with lambda2 = %v publishes %v", lambda2, got)
		}
	}
}

// TestNodeFrontDoor runs the streaming flow end to end against one node
// handler: one mux, one client, one error contract.
func TestNodeFrontDoor(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithName("front-door"),
		pptd.WithStreamEngine(2),
		pptd.WithLambda2(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
		ClientID: "u1",
		Claims:   []pptd.CampaignClaim{{Object: 0, Value: 1}, {Object: 1, Value: 2}},
	}); err != nil {
		t.Fatalf("stream submit: %v", err)
	}
	if _, err := client.StreamTruths(ctx); !errors.Is(err, pptd.ErrNotReady) {
		t.Fatalf("truths before the first close: err = %v, want ErrNotReady", err)
	}
	win, err := client.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatalf("close window: %v", err)
	}
	if win.Window != 1 {
		t.Fatalf("window = %d, want 1", win.Window)
	}
	truths, err := client.StreamTruths(ctx)
	if err != nil {
		t.Fatalf("stream truths: %v", err)
	}
	if truths.Window != 1 || len(truths.Truths) != 2 {
		t.Fatalf("latest window = %d, truths %v", truths.Window, truths.Truths)
	}

	// Unknown paths speak the envelope too.
	resp, err := http.Get(ts.URL + "/v1/no-such-thing")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var eb pptd.APIErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode not-found body: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || eb.Code != "not_found" || eb.V != 1 {
		t.Fatalf("unknown path: status %d envelope %+v", resp.StatusCode, eb)
	}
}

// TestNodeWindowHistory drives ?window=N against a bounded ring: recent
// windows answer, evicted and future windows fail with ErrUnknownWindow.
func TestNodeWindowHistory(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, HistoryWindows: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for w := 1; w <= 5; w++ {
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
			ClientID: "u",
			Claims:   []pptd.CampaignClaim{{Object: 0, Value: float64(10 * w)}},
		}); err != nil {
			t.Fatalf("window %d submit: %v", w, err)
		}
		if _, err := client.StreamCloseWindow(ctx); err != nil {
			t.Fatalf("window %d close: %v", w, err)
		}
	}

	for w := 3; w <= 5; w++ {
		info, err := client.StreamTruthsAt(ctx, w)
		if err != nil {
			t.Fatalf("truths at %d: %v", w, err)
		}
		if info.Window != w {
			t.Errorf("truths at %d returned window %d", w, info.Window)
		}
	}
	for _, w := range []int{1, 2, 99} {
		_, err := client.StreamTruthsAt(ctx, w)
		if !errors.Is(err, pptd.ErrUnknownWindow) {
			t.Errorf("truths at %d err = %v, want ErrUnknownWindow", w, err)
		}
	}
	// window=0 means latest.
	info, err := client.StreamTruthsAt(ctx, 0)
	if err != nil || info.Window != 5 {
		t.Fatalf("latest via window=0: %v %+v", err, info)
	}
}

// TestNodeHistorySurvivesRecovery is the acceptance drill: a durable
// node serves ?window=N for the last K windows, and still does after a
// kill-and-recover into the same state directory — including the error
// envelope staying intact on the recovered node.
func TestNodeHistorySurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *pptd.Node {
		t.Helper()
		n, err := pptd.NewNode(
			pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, HistoryWindows: 4}),
			pptd.WithPersistence(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := open()
	ts := httptest.NewServer(n.Handler())
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	truthOf := map[int]float64{}
	for w := 1; w <= 6; w++ {
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
			ClientID: "u",
			Claims:   []pptd.CampaignClaim{{Object: 0, Value: float64(w)}},
		}); err != nil {
			t.Fatalf("window %d submit: %v", w, err)
		}
		info, err := client.StreamCloseWindow(ctx)
		if err != nil {
			t.Fatalf("window %d close: %v", w, err)
		}
		truthOf[w] = info.Truths[0]
	}
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatalf("close node: %v", err)
	}

	// Reopen into the same directory: the retained history must answer
	// the same windows with the same truths, before any new traffic.
	n2 := open()
	defer func() { _ = n2.Close() }()
	ts2 := httptest.NewServer(n2.Handler())
	defer ts2.Close()
	client2, err := pptd.NewClient(ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	for w := 3; w <= 6; w++ {
		info, err := client2.StreamTruthsAt(ctx, w)
		if err != nil {
			t.Fatalf("recovered truths at %d: %v", w, err)
		}
		if info.Window != w || math.Abs(info.Truths[0]-truthOf[w]) > 1e-12 {
			t.Errorf("recovered window %d = %+v, want truth %v", w, info, truthOf[w])
		}
	}
	// Evicted window: still the typed error, still the envelope.
	_, err = client2.StreamTruthsAt(ctx, 1)
	if !errors.Is(err, pptd.ErrUnknownWindow) {
		t.Fatalf("recovered truths at 1 err = %v, want ErrUnknownWindow", err)
	}
	var httpErr *pptd.CampaignHTTPError
	if !errors.As(err, &httpErr) || httpErr.Code != "unknown_window" || httpErr.StatusCode != http.StatusNotFound {
		t.Fatalf("recovered envelope = %+v", httpErr)
	}
	// The stream resumes where it left off.
	info, err := client2.StreamTruths(ctx)
	if err != nil || info.Window != 6 {
		t.Fatalf("recovered latest: %v %+v", err, info)
	}
}

// TestNodeStreamStats checks StreamCampaignServer.Stats: a durable node
// reports journal counters and group-commit histograms, a memory-only
// node reports Durable false with no store block.
func TestNodeStreamStats(t *testing.T) {
	dir := t.TempDir()
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{
			NumObjects: 2, Lambda1: 1.5, Lambda2: 2, Delta: 0.3,
		}),
		pptd.WithPersistence(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
			ClientID: fmt.Sprintf("u%d", i),
			Claims:   []pptd.CampaignClaim{{Object: 0, Value: 1}},
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := client.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}

	stats := n.Stream().Stats()
	if !stats.Durable || stats.Store == nil {
		t.Fatalf("stats = %+v, want durable with store block", stats)
	}
	st := stats.Store
	if st.JournalAppends != 3 {
		t.Errorf("journal appends = %d, want 3", st.JournalAppends)
	}
	if st.JournalSyncs < 1 || st.JournalSyncs > 3 {
		t.Errorf("journal syncs = %d", st.JournalSyncs)
	}
	if st.BatchSizes.Count != st.JournalSyncs {
		t.Errorf("batch-size observations = %d, syncs = %d", st.BatchSizes.Count, st.JournalSyncs)
	}
	if int64(st.BatchSizes.Sum) != st.JournalAppends {
		t.Errorf("batch-size sum = %v, appends = %d", st.BatchSizes.Sum, st.JournalAppends)
	}
	if st.FlushLatencySeconds.Count != st.JournalSyncs || st.FlushLatencySeconds.Max <= 0 {
		t.Errorf("flush latency histogram = %+v", st.FlushLatencySeconds)
	}
	if st.ResultsSaved != 1 || st.Snapshots != 1 {
		t.Errorf("results = %d snapshots = %d, want 1/1", st.ResultsSaved, st.Snapshots)
	}
	if stats.Window != 1 || stats.HistoryOldest != 1 {
		t.Errorf("stats window bounds = %+v", stats)
	}

	// Memory-only node: no store block.
	n2, err := pptd.NewNode(pptd.WithStreamEngine(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n2.Close() }()
	if stats2 := n2.Stream().Stats(); stats2.Durable || stats2.Store != nil {
		t.Fatalf("memory-only stats = %+v", stats2)
	}
}

// TestNodeStreamEstimator checks StreamConfig.Estimator reaches every
// surface: the engine runs the selected estimator, the wire metadata (campaign,
// window results) and Stats name it, and a durable node refuses to recover
// a state directory written under a different estimator with the typed
// ErrStreamEstimatorMismatch instead of silently reinterpreting it.
func TestNodeStreamEstimator(t *testing.T) {
	gtm := pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 2, Estimator: pptd.StreamEstimatorGTM})
	dir := t.TempDir()
	n, err := pptd.NewNode(gtm, pptd.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	campaign, err := client.StreamCampaign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if campaign.Estimator != "gtm" {
		t.Errorf("campaign estimator = %q, want %q", campaign.Estimator, "gtm")
	}
	for _, id := range []string{"a", "b"} {
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{
			ClientID: id,
			Claims:   []pptd.CampaignClaim{{Object: 0, Value: 1}, {Object: 1, Value: 2}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := client.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Estimator != "gtm" {
		t.Errorf("window estimator = %q, want %q", info.Estimator, "gtm")
	}
	if stats := n.Stream().Stats(); stats.Estimator != "gtm" {
		t.Errorf("stats estimator = %q, want %q", stats.Estimator, "gtm")
	}
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// Same directory, default estimator (CRH): recovery must refuse the
	// GTM-written snapshot with the typed sentinel.
	_, err = pptd.NewNode(pptd.WithStreamEngine(2), pptd.WithPersistence(dir))
	if !errors.Is(err, pptd.ErrStreamEstimatorMismatch) {
		t.Fatalf("recover under crh = %v, want ErrStreamEstimatorMismatch", err)
	}
	// The matching estimator recovers fine.
	n2, err := pptd.NewNode(gtm, pptd.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}
}

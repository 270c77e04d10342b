package stream

import (
	"strings"
	"testing"

	"pptd/internal/obs"
	"pptd/internal/obs/obstest"
)

func scrapeValue(t *testing.T, reg *obs.Registry, name string, labelPairs ...string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	p, err := obstest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse exposition: %v\n%s", err, b.String())
	}
	v, err := p.Value(name, labelPairs...)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	return v
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(Config{
		NumObjects: 4, NumShards: 2,
		Lambda1: 1, Lambda2: 2, Delta: 1e-5,
		EpsilonBudget: 2 * mustEps(t, 1, 2, 1e-5),
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	if _, _, err := e.Ingest("alice", []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("bob", []Claim{{Object: 2, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	// Rejections by reason: duplicate window, bad claim.
	if _, _, err := e.Ingest("alice", []Claim{{Object: 3, Value: 1}}); err == nil {
		t.Fatal("duplicate window accepted")
	}
	if _, _, err := e.Ingest("carol", []Claim{{Object: 99, Value: 1}}); err == nil {
		t.Fatal("bad object accepted")
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	// Budget: each user can afford 2 windows; the third window's charge
	// is rejected as budget_exhausted.
	if _, _, err := e.Ingest("alice", []Claim{{Object: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Ingest("alice", []Claim{{Object: 0, Value: 1}}); err == nil {
		t.Fatal("exhausted budget accepted")
	}

	if got := scrapeValue(t, reg, "pptd_stream_claims_ingested_total"); got != 4 {
		t.Errorf("claims ingested = %v, want 4", got)
	}
	for reason, want := range map[string]float64{
		"duplicate_window": 1, "bad_claim": 1, "budget_exhausted": 1,
	} {
		if got := scrapeValue(t, reg, "pptd_stream_submissions_rejected_total", "reason", reason); got != want {
			t.Errorf("rejected{%s} = %v, want %v", reason, got, want)
		}
	}
	if got := scrapeValue(t, reg, "pptd_stream_windows_closed_total"); got != 2 {
		t.Errorf("windows closed = %v, want 2", got)
	}
	if got := scrapeValue(t, reg, "pptd_stream_window_close_duration_seconds_count"); got != 2 {
		t.Errorf("close duration count = %v, want 2", got)
	}
	// Three accepted charges → three cumulative-epsilon observations.
	if got := scrapeValue(t, reg, "pptd_stream_user_cumulative_epsilon_count"); got != 3 {
		t.Errorf("cumulative epsilon observations = %v, want 3", got)
	}
	if got := scrapeValue(t, reg, "pptd_stream_tracked_users"); got != 2 {
		t.Errorf("tracked users = %v, want 2 (carol was rejected before registration charge)", got)
	}
	// One queue-depth series per shard, drained after the closes.
	for _, shard := range []string{"0", "1"} {
		if got := scrapeValue(t, reg, "pptd_stream_shard_queue_depth", "shard", shard); got != 0 {
			t.Errorf("queue depth shard %s = %v, want 0 after close", shard, got)
		}
	}
}

// mustEps returns the per-window epsilon an engine with these privacy
// parameters charges.
func mustEps(t *testing.T, lambda1, lambda2, delta float64) float64 {
	t.Helper()
	eps, err := Config{Lambda1: lambda1, Lambda2: lambda2, Delta: delta}.EpsilonPerWindow()
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

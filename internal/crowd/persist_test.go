package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// TestBatchCampaignPersistenceRecovery walks a durable batch campaign
// through two restarts: submissions survive the first (with the
// duplicate guard intact), the aggregated result survives the second
// (without re-aggregation, and with the campaign still closed).
func TestBatchCampaignPersistenceRecovery(t *testing.T) {
	dir := t.TempDir()
	method := testMethod(t)
	open := func() *streamstore.Store {
		t.Helper()
		store, err := streamstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	cfg := func(store *streamstore.Store) ServerConfig {
		return ServerConfig{
			Name:        "batch-durable",
			NumObjects:  2,
			Lambda2:     1.5,
			Method:      method,
			Persistence: store,
		}
	}
	ctx := context.Background()

	// Life 1: two clients submit, then the "process" dies gracefully.
	store1 := open()
	srv1, err := NewServer(cfg(store1))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	client1, err := NewClient(ts1.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []Submission{
		{ClientID: "alice", Claims: []Claim{{Object: 0, Value: 1.0}, {Object: 1, Value: 2.0}}},
		{ClientID: "bob", Claims: []Claim{{Object: 0, Value: 1.2}, {Object: 1, Value: 1.8}}},
	} {
		if _, err := client1.Submit(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: both submissions recovered, duplicate still rejected, a
	// new client joins, and the campaign aggregates.
	store2 := open()
	srv2, err := NewServer(cfg(store2))
	if err != nil {
		t.Fatal(err)
	}
	if info := srv2.Campaign(); info.SubmittedUsers != 2 || info.Aggregated {
		t.Fatalf("recovered campaign = %+v, want 2 submitted users, open", info)
	}
	if _, err := srv2.Submit(Submission{ClientID: "alice", Claims: []Claim{{Object: 0, Value: 9}}}); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("resubmission after restart = %v, want ErrDuplicateClient", err)
	}
	if _, err := srv2.Submit(Submission{ClientID: "carol", Claims: []Claim{{Object: 0, Value: 0.8}, {Object: 1, Value: 2.2}}}); err != nil {
		t.Fatal(err)
	}
	res2, err := srv2.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Weights) != 3 {
		t.Fatalf("aggregated weights = %+v, want all three clients", res2.Weights)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: the persisted result is served without re-aggregation and
	// the campaign stays closed.
	store3 := open()
	t.Cleanup(func() { _ = store3.Close() })
	srv3, err := NewServer(cfg(store3))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := srv3.Result()
	if err != nil {
		t.Fatalf("result after restart = %v, want the persisted aggregation", err)
	}
	if res3.Method != res2.Method || len(res3.Truths) != len(res2.Truths) {
		t.Fatalf("recovered result = %+v, want %+v", res3, res2)
	}
	for i := range res2.Truths {
		if res3.Truths[i] != res2.Truths[i] {
			t.Fatalf("recovered truth[%d] = %v, want %v", i, res3.Truths[i], res2.Truths[i])
		}
	}
	for id, w := range res2.Weights {
		if res3.Weights[id] != w {
			t.Fatalf("recovered weight[%s] = %v, want %v", id, res3.Weights[id], w)
		}
	}
	if _, err := srv3.Submit(Submission{ClientID: "dave", Claims: []Claim{{Object: 0, Value: 1}}}); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("submission after recovered result = %v, want ErrCampaignClosed", err)
	}
}

// TestBatchPersistFailureRejectsSubmission: when the WAL append fails,
// the submission is not acknowledged and the in-memory state does not
// advance — durable-before-acknowledged, never the reverse.
func TestBatchPersistFailureRejectsSubmission(t *testing.T) {
	store, err := streamstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		NumObjects:  1,
		Lambda2:     1,
		Method:      testMethod(t),
		Persistence: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil { // every append now fails
		t.Fatal(err)
	}
	if _, err := srv.Submit(Submission{ClientID: "u", Claims: []Claim{{Object: 0, Value: 1}}}); err == nil {
		t.Fatal("submission acknowledged without durability")
	}
	if info := srv.Campaign(); info.SubmittedUsers != 0 {
		t.Fatalf("failed submission still counted: %+v", info)
	}
}

// TestStreamStatsResetKeepsResidentGauge is the regression test for
// GET /v1/stream/stats?reset=1 zeroing the residency gauges: residency
// is live engine state, not a windowed counter, so a stats poller that
// resets its window must keep seeing the true resident population —
// while the store's spill *counters* do window and its spilled-users
// *gauge* does not.
func TestStreamStatsResetKeepsResidentGauge(t *testing.T) {
	store, err := streamstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv, err := NewStreamServer(StreamServerConfig{
		Name: "stream-resident",
		Engine: stream.Config{
			NumObjects: 2,
			NumShards:  1,
			Lambda1:    1,
			Lambda2:    2,
			Delta:      0.3,
			// One decay pass kills every sufficient statistic, so all
			// users are evictable at the first close.
			Decay:            1e-10,
			MaxResidentUsers: 1,
		},
		Persistence: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	statsAt := func(reset bool) StreamStatsInfo {
		t.Helper()
		path := ts.URL + PathStreamStats
		if reset {
			path += "?reset=1"
		}
		resp, err := http.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var info StreamStatsInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if info.Store == nil {
			t.Fatal("durable stream server reported no store stats")
		}
		return info
	}

	for _, id := range []string{"u-0", "u-1", "u-2"} {
		if _, err := client.StreamSubmit(ctx, Submission{ClientID: id, Claims: []Claim{{Object: 0, Value: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if info := statsAt(false); info.ResidentUsers != 3 || info.MaxResidentUsers != 1 {
		t.Fatalf("pre-close stats = %d resident / cap %d, want 3 / 1", info.ResidentUsers, info.MaxResidentUsers)
	}

	// The close evicts down to the cap: two users spill.
	if _, err := client.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	before := statsAt(false)
	if before.ResidentUsers != 1 {
		t.Fatalf("post-close resident users = %d, want 1 (cap)", before.ResidentUsers)
	}
	if before.Store.UserSpills != 2 || before.Store.SpilledUsers != 2 {
		t.Fatalf("post-close spill stats = %d spills / %d spilled, want 2 / 2", before.Store.UserSpills, before.Store.SpilledUsers)
	}

	// The reset read still reports the live gauges...
	during := statsAt(true)
	if during.ResidentUsers != 1 || during.MaxResidentUsers != 1 {
		t.Fatalf("reset read = %d resident / cap %d, want 1 / 1: ?reset=1 zeroed a gauge", during.ResidentUsers, during.MaxResidentUsers)
	}
	// ...and afterwards the spill counter is windowed while both gauges
	// keep describing the present.
	after := statsAt(false)
	if after.ResidentUsers != 1 || after.MaxResidentUsers != 1 {
		t.Fatalf("post-reset read = %d resident / cap %d, want 1 / 1: ?reset=1 zeroed a gauge", after.ResidentUsers, after.MaxResidentUsers)
	}
	if after.Store.UserSpills != 0 {
		t.Fatalf("post-reset UserSpills = %d, want 0 (windowed counter)", after.Store.UserSpills)
	}
	if after.Store.SpilledUsers != 2 {
		t.Fatalf("post-reset SpilledUsers = %d, want 2 (gauge survives reset)", after.Store.SpilledUsers)
	}

	// An evicted user is transparently re-admitted on its next claim.
	if _, err := client.StreamSubmit(ctx, Submission{ClientID: "u-0", Claims: []Claim{{Object: 1, Value: 2}}}); err != nil {
		t.Fatalf("evicted user not re-admitted: %v", err)
	}
	readmit := statsAt(false)
	if readmit.ResidentUsers != 2 {
		t.Fatalf("resident users after readmission = %d, want 2", readmit.ResidentUsers)
	}
	if readmit.Store.UserLoads < 1 {
		t.Fatalf("UserLoads after readmission = %d, want >= 1", readmit.Store.UserLoads)
	}
}

package crowd

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"pptd/internal/obs"
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

// TestResidencyGaugesOnMetrics checks the residency gauges an operator
// reads on /metrics against the engine and the store they describe, on
// a durable server capped at one resident user: after the close that
// spills the idle users, after a spilled user is readmitted, and after
// a kill and recovery of the state directory.
func TestResidencyGaugesOnMetrics(t *testing.T) {
	boot := func(dir string) (*StreamServer, *streamstore.Store, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		store, err := streamstore.OpenWith(dir, streamstore.Options{Metrics: reg})
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
				Metrics:          reg,
			},
			Persistence: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv, store, reg
	}
	// check asserts the three series equal the live engine and store, and
	// the resident count equals want.
	check := func(step string, srv *StreamServer, store *streamstore.Store, reg *obs.Registry, want int) {
		t.Helper()
		var text bytes.Buffer
		if err := reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		p, err := obs.ParseText(&text)
		if err != nil {
			t.Fatal(err)
		}
		st := store.Stats(false)
		for _, m := range []struct {
			name string
			want float64
		}{
			{"pptd_stream_resident_users", float64(srv.Engine().ResidentUsers())},
			{"pptd_store_spilled_users", float64(st.SpilledUsers)},
			{"pptd_store_user_spills_total", float64(st.UserSpills)},
		} {
			if got, err := p.Value(m.name); err != nil || got != m.want {
				t.Errorf("%s: %s = %v, %v; want %v", step, m.name, got, err, m.want)
			}
		}
		if got := srv.Engine().ResidentUsers(); got != want {
			t.Errorf("%s: %d resident users, want %d", step, got, want)
		}
	}

	dir := t.TempDir()
	srv, store, reg := boot(dir)
	submit := func(id string, object int) {
		t.Helper()
		if _, err := srv.Submit(Submission{ClientID: id, Claims: []Claim{{Object: object, Value: 1}}}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	for _, id := range []string{"u-0", "u-1", "u-2"} {
		submit(id, 0)
	}
	check("before the close", srv, store, reg, 3)

	// The close evicts down to the cap: two users spill.
	if _, err := srv.CloseWindow(); err != nil {
		t.Fatal(err)
	}
	check("after the spilling close", srv, store, reg, 1)
	if st := store.Stats(false); st.UserSpills != 2 || st.SpilledUsers != 2 {
		t.Fatalf("store after the close = %d spills / %d spilled, want 2 / 2", st.UserSpills, st.SpilledUsers)
	}

	// An evicted user is transparently readmitted on its next claim.
	submit("u-0", 1)
	check("after readmission", srv, store, reg, 2)
	if st := store.Stats(false); st.UserLoads < 1 {
		t.Fatalf("UserLoads after readmission = %d, want >= 1", st.UserLoads)
	}

	// Kill: boot a fresh server over the directory as a power cut leaves
	// it. The readmitted user's charge replays from the journal.
	srv, store, reg = boot(crashImage(t, dir))
	check("after recovery", srv, store, reg, 2)
}

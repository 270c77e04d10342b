package crowd

import (
	"bytes"
	"testing"

	"pptd/internal/obs"
	"pptd/internal/obs/obstest"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

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
		p, err := obstest.ParseText(&text)
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

package crowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// crashImage copies a live state directory the way a power cut leaves
// it: every file as it is on disk, no graceful Close, no LOCK.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestRecoveredWeightsEqualCloseReply: per-user weights are persisted
// nowhere — not in result.json, not in the ring — yet a node killed
// after its last close answers ?weights=1 with exactly the map that
// close replied with, from the carries its snapshot holds or its claim
// WAL replays. Everything else about the recovered window comes from the
// O(objects) result file.
func TestRecoveredWeightsEqualCloseReply(t *testing.T) {
	cases := []struct {
		name string
		cfg  stream.Config
		opts streamstore.Options
	}{
		{"snapshot at the close", stream.Config{Decay: 0.5}, streamstore.Options{ResultHistory: 8}},
		{"closes replayed from the claim WAL",
			stream.Config{Lambda1: 1.5, Lambda2: 2, Delta: 0.3, ClaimWAL: true},
			streamstore.Options{ResultHistory: 8, SnapshotEvery: 1000}},
	}
	for _, tc := range cases {
		for _, est := range stream.EstimatorNames {
			t.Run(tc.name+"/"+est, func(t *testing.T) {
				cfg := tc.cfg
				cfg.NumObjects, cfg.NumShards, cfg.Estimator = 5, 2, est
				boot := func(dir string) (*StreamServer, *streamstore.Store) {
					store, err := streamstore.OpenWith(dir, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					srv, err := NewStreamServer(StreamServerConfig{Name: "weights", Engine: cfg, Persistence: store})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() {
						_ = srv.Close()
						_ = store.Close()
					})
					return srv, store
				}
				dir := t.TempDir()
				srv, _ := boot(dir)
				var reply StreamWindowInfo
				for window := 1; window <= 2; window++ {
					for u := 0; u < 30; u++ {
						if window == 2 && u%3 == 0 {
							continue // a third of the fleet sits the second window out
						}
						sub := Submission{ClientID: fmt.Sprintf("dev-%02d", u)}
						for o := 0; o < cfg.NumObjects; o++ {
							if (u+o)%2 == 0 {
								sub.Claims = append(sub.Claims, Claim{Object: o, Value: math.Sin(float64(7*u+3*o+window)) * float64(1+u%4)})
							}
						}
						if _, err := srv.Submit(sub); err != nil {
							t.Fatal(err)
						}
					}
					var err error
					if reply, err = srv.CloseWindow(); err != nil {
						t.Fatal(err)
					}
				}
				if len(reply.Weights) != reply.ActiveUsers || reply.ActiveUsers == 0 {
					t.Fatalf("close reply carries %d weights for %d active users", len(reply.Weights), reply.ActiveUsers)
				}
				live, err := srv.TruthsAt(0, true)
				if err != nil || !reflect.DeepEqual(live.Weights, reply.Weights) {
					t.Fatalf("?weights=1 before the kill = %v, %v; close replied %v", live.Weights, err, reply.Weights)
				}

				image := crashImage(t, dir)
				if raw, err := os.ReadFile(filepath.Join(image, "result.json")); err != nil || bytes.Contains(raw, []byte("dev-")) {
					t.Fatalf("result.json names users (or is missing): %s, %v", raw, err)
				}
				recovered, _ := boot(image)
				ts := httptest.NewServer(recovered.Handler())
				defer ts.Close()
				client, err := NewClient(ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				var got StreamWindowInfo
				if err := client.do(ctx, http.MethodGet, PathStreamTruths+"?weights=1", nil, &got); err != nil {
					t.Fatalf("?weights=1 on the recovered node: %v", err)
				}
				if !reflect.DeepEqual(got.Weights, reply.Weights) {
					t.Errorf("recovered weights = %v\nclose replied      %v", got.Weights, reply.Weights)
				}
				want := reply
				want.Weights = nil
				plain, err := client.StreamTruths(ctx)
				if err != nil || !reflect.DeepEqual(plain, want) {
					t.Errorf("recovered truths = %+v, %v\nwant the close reply minus weights %+v", plain, err, want)
				}
				// Window 1 is retained by number, but its weights are gone.
				var w1 StreamWindowInfo
				if err := client.do(ctx, http.MethodGet, PathStreamTruths+"?window=1", nil, &w1); err != nil || w1.Window != 1 {
					t.Errorf("?window=1 on the recovered node: window %d, %v", w1.Window, err)
				}
				if _, err := recovered.TruthsAt(1, true); !errors.Is(err, ErrUnknownWindow) {
					t.Errorf("?window=1&weights=1 on the recovered node = %v, want ErrUnknownWindow", err)
				}
			})
		}
	}
}

// TestLoneUserWindowPublishesOneUser: a window one user estimated
// publishes effectiveUsers 1 and maxWeightShare 1 under every
// estimator, in the close reply and in GET ?weights=1, and no body
// carries a "-0" weight (CRH's lone user weighs -log(1)).
func TestLoneUserWindowPublishesOneUser(t *testing.T) {
	for _, est := range stream.EstimatorNames {
		t.Run(est, func(t *testing.T) {
			srv, err := NewStreamServer(StreamServerConfig{
				Name:   "lone",
				Engine: stream.Config{NumObjects: 2, NumShards: 1, Estimator: est},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = srv.Close() }()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			post := func(path, body string) []byte {
				t.Helper()
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = resp.Body.Close() }()
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s: %d %s", path, resp.StatusCode, buf.Bytes())
				}
				return buf.Bytes()
			}
			post("/v1/stream/claims", `{"clientId":"a","claims":[{"object":0,"value":1.5},{"object":1,"value":2.5}]}`)
			closeReply := post("/v1/stream/window", "")
			resp, err := http.Get(ts.URL + "/v1/stream/truths?weights=1")
			if err != nil {
				t.Fatal(err)
			}
			var truths bytes.Buffer
			_, _ = truths.ReadFrom(resp.Body)
			_ = resp.Body.Close()
			for name, body := range map[string][]byte{"close reply": closeReply, "GET ?weights=1": truths.Bytes()} {
				var info StreamWindowInfo
				if err := json.Unmarshal(body, &info); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if info.ActiveUsers != 1 || info.EffectiveUsers != 1 || info.MaxWeightShare != 1 {
					t.Errorf("%s: active %d, effective %v, max share %v; want 1, 1 and 1",
						name, info.ActiveUsers, info.EffectiveUsers, info.MaxWeightShare)
				}
				if _, ok := info.Weights["a"]; !ok || bytes.Contains(body, []byte(":-0")) {
					t.Errorf("%s: %s; want user a's weight, and no -0", name, body)
				}
			}
		})
	}
}

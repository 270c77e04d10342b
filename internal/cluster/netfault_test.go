package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/stream"
)

// roundCall names one RPC of a close round: its route, the worker it
// goes to and, for a close, whether it forces. A retry is the same call.
type roundCall struct {
	path, host string
	force      bool
}

func (rc roundCall) String() string {
	switch {
	case rc.path == crowd.PathClusterCommit:
		return "commit " + rc.host
	case rc.force:
		return "force " + rc.host
	default:
		return "probe " + rc.host
	}
}

// dropReplies is a network that loses replies: a request matching the
// armed call reaches its worker and is applied there, then the reply is
// thrown away and the coordinator sees a transport error — on the call
// and on every retry of it. Everything else passes through.
type dropReplies struct {
	next http.RoundTripper

	mu      sync.Mutex
	armed   *roundCall
	dropped int
}

// arm drops the replies to rc from now on (nil: to nothing) and resets
// the drop count.
func (d *dropReplies) arm(rc *roundCall) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed, d.dropped = rc, 0
}

// drops counts the replies dropped since the last arm.
func (d *dropReplies) drops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

func (d *dropReplies) RoundTrip(req *http.Request) (*http.Response, error) {
	call := roundCall{path: req.URL.Path, host: req.URL.Host}
	if call.path == crowd.PathClusterClose && req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		var closeReq crowd.ClusterCloseRequest
		err = json.NewDecoder(body).Decode(&closeReq)
		_ = body.Close()
		if err != nil {
			return nil, err
		}
		call.force = closeReq.Force
	}
	resp, err := d.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	drop := d.armed != nil && *d.armed == call
	if drop {
		d.dropped++
	}
	d.mu.Unlock()
	if !drop {
		return resp, nil
	}
	// The worker answered, so it has applied the call; the reply is lost.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return nil, fmt.Errorf("reply to %s dropped", call)
}

// TestCloseRoundSurvivesDroppedReplies sweeps a lost reply over every
// call of a close round with two durable workers, one of which holds no
// claims: probe both, force the empty one, commit both. Each withheld
// round publishes nothing, and the next CloseWindow publishes the
// single-node reference within 1e-9 with every worker's engine one
// window further (never two) and committed at that window. A dropped
// commit reply leaves its worker committed while the coordinator is not,
// so the next round's close to that worker is served from its
// cluster-close record, not from memory.
func TestCloseRoundSurvivesDroppedReplies(t *testing.T) {
	for _, est := range estimatorsUnderTest(t) {
		t.Run(est, func(t *testing.T) {
			cfg := baseConfig(est)
			workerCfg := cfg
			workerCfg.ClaimWAL = true
			workers := []*testWorker{startWorker(t, workerCfg, "w0"), startWorker(t, workerCfg, "w1")}
			defer func() {
				for _, w := range workers {
					w.closeAll(t)
				}
			}()
			ref, err := stream.New(cfg)
			if err != nil {
				t.Fatalf("reference engine: %v", err)
			}
			defer func() {
				_ = ref.Close()
			}()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			lossy := &dropReplies{next: tr}
			coord, err := NewCoordinator(Config{
				Name: "dropped-replies", Engine: cfg, Workers: []string{workers[0].url, workers[1].url},
				HTTPClient: &http.Client{Transport: lossy},
			})
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}

			// Every claim goes to workers[0], so workers[1] answers the
			// probe empty and the round has a force call.
			full, empty := workers[0], workers[1]
			var users []string
			for i := 0; len(users) < 12; i++ {
				if id := userID(i); coord.Ring().Owner(id) == full.url {
					users = append(users, id)
				}
			}
			host := func(w *testWorker) string {
				u, err := url.Parse(w.url)
				if err != nil {
					t.Fatal(err)
				}
				return u.Host
			}
			calls := []roundCall{
				{path: crowd.PathClusterClose, host: host(full)},
				{path: crowd.PathClusterClose, host: host(empty)},
				{path: crowd.PathClusterClose, host: host(empty), force: true},
				{path: crowd.PathClusterCommit, host: host(full)},
				{path: crowd.PathClusterCommit, host: host(empty)},
			}

			ctx := context.Background()
			for n, call := range calls {
				window := n + 1
				for u, id := range users {
					if !submits(u, window) {
						continue
					}
					claims := claimsFor(u, window, cfg.NumObjects)
					if _, _, err := ref.Ingest(id, claims); err != nil {
						t.Fatalf("window %d: reference ingest: %v", window, err)
					}
					if _, err := coord.Submit(ctx, toSubmission(id, claims)); err != nil {
						t.Fatalf("window %d: cluster submit: %v", window, err)
					}
				}

				armed := call // the loop variable is shared across iterations
				lossy.arm(&armed)
				_, err := coord.CloseWindow()
				drops := lossy.drops()
				lossy.arm(nil)
				if !errors.Is(err, crowd.ErrWorkerUnavailable) || drops == 0 {
					t.Fatalf("call %d (%s): round with a dropped reply: err = %v after %d drops, want ErrWorkerUnavailable",
						n, call, err, drops)
				}
				if coord.Window() != window-1 {
					t.Fatalf("call %d (%s): withheld round advanced the coordinator to %d", n, call, coord.Window())
				}
				for _, w := range workers {
					got := w.worker.srv.Engine().Window()
					if got < window-1 || got > window {
						t.Fatalf("call %d (%s): worker %s at %d closed windows after the withheld round of window %d",
							n, call, w.url, got, window)
					}
				}
				if call.path == crowd.PathClusterCommit {
					// The lost reply is a commit the worker made durable: the
					// retry below reads its export back from the record.
					for _, w := range workers {
						if st := w.worker.srv.ClusterStatus(); st.CommittedWindow != window {
							t.Fatalf("call %d (%s): worker %s status %+v, want committed at %d", n, call, w.url, st, window)
						}
					}
				}

				want, err := ref.CloseWindow()
				if err != nil {
					t.Fatalf("window %d: reference close: %v", window, err)
				}
				got, err := coord.CloseWindow()
				if err != nil {
					t.Fatalf("call %d (%s): close after the withheld round: %v", n, call, err)
				}
				requireEquivalent(t, window, crowd.WindowInfo(want), got)
				for _, w := range workers {
					want := crowd.ClusterStatusReply{Window: window, PendingWindow: window, CommittedWindow: window}
					if st := w.worker.srv.ClusterStatus(); st != want {
						t.Fatalf("call %d (%s): worker %s status %+v, want %+v", n, call, w.url, st, want)
					}
				}
			}
		})
	}
}

// dropClaimReplies is a worker handler that loses claim replies while
// armed: the worker ingests the claim, then the connection is hijacked
// and closed unanswered. Everything else passes through.
type dropClaimReplies struct {
	next http.Handler

	mu      sync.Mutex
	armed   bool
	dropped int
}

func (d *dropClaimReplies) arm(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed, d.dropped = on, 0
}

func (d *dropClaimReplies) drops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

func (d *dropClaimReplies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	drop := d.armed && r.URL.Path == crowd.PathStreamClaims
	if drop {
		d.dropped++
	}
	d.mu.Unlock()
	if !drop {
		d.next.ServeHTTP(w, r)
		return
	}
	d.next.ServeHTTP(httptest.NewRecorder(), r)
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		panic(err)
	}
	_ = conn.Close()
}

// TestCoordinatorCountsClaimsOfLostReplies loses the reply to a routed
// submission after its worker ingested the claims. The coordinator's
// TotalClaims sums the workers' own counts, the count a merged result
// sums too: the close that covers the lost claims brings the campaign's
// count level with the result's, and one accepted claim after it puts
// the campaign's count ahead, which is what the idle-tick rule reads.
func TestCoordinatorCountsClaimsOfLostReplies(t *testing.T) {
	cfg := baseConfig(estimatorsUnderTest(t)[0])
	w := startWorker(t, cfg, "w0")
	defer w.closeAll(t)
	lossy := &dropClaimReplies{}
	w.stopListening(t)
	w.wrap = func(h http.Handler) http.Handler {
		lossy.next = h
		return lossy
	}
	w.relisten(t)
	coord, err := NewCoordinator(Config{Name: "lost-submit", Engine: cfg, Workers: []string{w.url}})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer func() {
		_ = coord.Close()
	}()
	ctx := context.Background()
	lost := claimsFor(0, 1, cfg.NumObjects)
	lossy.arm(true)
	_, err = coord.Submit(ctx, toSubmission(userID(0), lost))
	drops := lossy.drops()
	lossy.arm(false)
	if !errors.Is(err, crowd.ErrWorkerUnavailable) || drops == 0 {
		t.Fatalf("submit with a dropped reply: err = %v after %d drops, want ErrWorkerUnavailable", err, drops)
	}
	if got := w.worker.srv.Engine().TotalClaims(); got != int64(len(lost)) {
		t.Fatalf("worker ingested %d claims, want the lost reply's %d", got, len(lost))
	}

	res, err := coord.CloseWindow()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := coord.Campaign().TotalClaims; res.TotalClaims != int64(len(lost)) || got != res.TotalClaims {
		t.Fatalf("after the close: campaign counts %d claims, result %d; want %d and %d", got, res.TotalClaims, len(lost), len(lost))
	}
	receipt, err := coord.Submit(ctx, toSubmission(userID(1), []stream.Claim{{Object: 0, Value: 1}}))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	want := int64(len(lost) + 1)
	if got := coord.Campaign().TotalClaims; receipt.TotalClaims != want || got != want {
		t.Errorf("after one more claim: receipt counts %d claims, campaign %d; want %d, ahead of the result's %d",
			receipt.TotalClaims, got, want, res.TotalClaims)
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/stream"
)

// countingListener counts the connections it accepts and those of them
// the server has closed.
type countingListener struct {
	net.Listener
	accepts, closes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return &countedConn{Conn: c, closes: &l.closes}, nil
}

// countedConn counts its first Close.
type countedConn struct {
	net.Conn
	once   sync.Once
	closes *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.closes.Add(1) })
	return c.Conn.Close()
}

// countedWorker is an in-memory worker whose listener counts accepts
// and which notes the connection every claim arrives on.
type countedWorker struct {
	srv *crowd.StreamServer
	ts  *httptest.Server
	ln  *countingListener

	mu         sync.Mutex
	claimConns []string // the remote address of each claim, in arrival order
}

// claimConnsSince counts the distinct connections that carried claims
// from the n-th claim on.
func (w *countedWorker) claimConnsSince(n int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := map[string]bool{}
	for _, a := range w.claimConns[n:] {
		seen[a] = true
	}
	return len(seen)
}

// sequentialConns is how many connections n claims sent one after another
// to one worker take: one where idle connections are reused, else n.
func sequentialConns(n int) int {
	if idleConnsReused {
		return 1
	}
	return n
}

// claimCount is how many claims have arrived.
func (w *countedWorker) claimCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.claimConns)
}

// startCountedWorker serves a worker's stream and cluster routes, over
// TLS when https is set, its handler decorated by wrap when wrap is not
// nil.
func startCountedWorker(t *testing.T, cfg stream.Config, https bool, wrap func(http.Handler) http.Handler) *countedWorker {
	t.Helper()
	srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: "counted", Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	mux := http.NewServeMux()
	crowd.RegisterStream(mux, srv, 0)
	srv.RegisterCluster(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	w := &countedWorker{srv: srv}
	w.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == crowd.PathStreamClaims {
			w.mu.Lock()
			w.claimConns = append(w.claimConns, r.RemoteAddr)
			w.mu.Unlock()
		}
		h.ServeHTTP(rw, r)
	}))
	w.ln = &countingListener{Listener: w.ts.Listener}
	w.ts.Listener = w.ln
	if https {
		w.ts.StartTLS()
	} else {
		w.ts.Start()
	}
	t.Cleanup(w.ts.Close)
	return w
}

// newTestCoordinator boots a coordinator over urls whose boot RPCs use a
// transport of their own, closed with the test.
func newTestCoordinator(t *testing.T, cfg stream.Config, urls ...string) *Coordinator {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	coord, err := NewCoordinator(Config{Name: "forward", Engine: cfg, Workers: urls, HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return coord
}

// TestForwardUnansweredClaimEndsWithContext: a worker that never answers
// a claim fails it with ErrWorkerUnavailable when the caller's context
// ends, well before the request timeout, and the connection it hung on
// is not reused: the next claim dials fresh.
func TestForwardUnansweredClaimEndsWithContext(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	var hang atomic.Bool
	release := make(chan struct{})
	w := startCountedWorker(t, cfg, false, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == crowd.PathStreamClaims && hang.Load() {
				// With the body read, the server notices the coordinator
				// closing the connection and ends the request's context.
				_, _ = io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-release:
				}
				return
			}
			next.ServeHTTP(rw, r)
		})
	})
	t.Cleanup(func() { close(release) }) // before the worker's server closes
	coord := newTestCoordinator(t, cfg, w.ts.URL)

	hang.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := coord.Submit(ctx, crowd.Submission{ClientID: "a", Claims: []crowd.Claim{{Object: 0, Value: 1}}})
	if !errors.Is(err, crowd.ErrWorkerUnavailable) {
		t.Fatalf("unanswered claim: err = %v, want ErrWorkerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > crowd.RequestTimeout/2 {
		t.Fatalf("unanswered claim returned after %v, not when its context ended", elapsed)
	}

	hang.Store(false)
	receipt, err := coord.Submit(context.Background(), crowd.Submission{ClientID: "b", Claims: []crowd.Claim{{Object: 1, Value: 2}}})
	if err != nil || receipt.Accepted != 1 {
		t.Fatalf("claim after the unanswered one: %+v, %v", receipt, err)
	}
	if got := w.claimConnsSince(0); got != 2 {
		t.Fatalf("the two claims came over %d connections, want 2: the hung one must not be reused", got)
	}
}

// TestForwardKeepsNoConnectionClosedByReply: a reply carrying
// Connection: close retires its connection, even when the worker leaves
// it open, so every such claim dials and none arrives on a connection
// that was asked to close; without the header one connection carries
// every claim (where idle connections are reused).
func TestForwardKeepsNoConnectionClosedByReply(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	var closing atomic.Bool
	var reused atomic.Int64 // bytes sent on a connection after a Connection: close reply
	w := startCountedWorker(t, cfg, false, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != crowd.PathStreamClaims || !closing.Load() {
				next.ServeHTTP(rw, r)
				return
			}
			// Answer with Connection: close, then hold the connection
			// open instead of closing it, watching for a next request.
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			conn, brw, err := http.NewResponseController(rw).Hijack()
			if err != nil {
				panic(err)
			}
			resp := rec.Result()
			resp.ContentLength, resp.Close = int64(rec.Body.Len()), true
			if err := resp.Write(conn); err != nil {
				panic(err)
			}
			go func() {
				defer conn.Close()
				if _, err := brw.ReadByte(); err == nil {
					reused.Add(1)
				}
			}()
		})
	})
	coord := newTestCoordinator(t, cfg, w.ts.URL)
	submit := func(u int) {
		t.Helper()
		if _, err := coord.Submit(context.Background(), crowd.Submission{ClientID: userID(u), Claims: []crowd.Claim{{Object: 0, Value: 1}}}); err != nil {
			t.Fatalf("claim %d: %v", u, err)
		}
	}

	for _, tc := range []struct {
		closing bool
		want    int
	}{{true, 3}, {false, sequentialConns(3)}} {
		closing.Store(tc.closing)
		before := w.claimCount()
		for u := 0; u < 3; u++ {
			submit(u)
		}
		if got := w.claimConnsSince(before); got != tc.want {
			t.Fatalf("Connection: close %v: 3 claims came over %d connections, want %d", tc.closing, got, tc.want)
		}
	}
	if n := reused.Load(); n != 0 {
		t.Fatalf("%d claims were written on a connection whose reply said Connection: close", n)
	}
}

// TestForwardConcurrentClaims: 8 goroutines route claims to 2 workers.
// Every receipt counts its batch, the workers hold every claim, and,
// where idle connections are reused, no worker accepts more connections
// than there are goroutines.
func TestForwardConcurrentClaims(t *testing.T) {
	const goroutines, perGoroutine = 8, 40
	cfg := stream.Config{NumObjects: 4}
	workers := []*countedWorker{startCountedWorker(t, cfg, false, nil), startCountedWorker(t, cfg, false, nil)}
	coord := newTestCoordinator(t, cfg, workers[0].ts.URL, workers[1].ts.URL)
	before := []int64{workers[0].ln.accepts.Load(), workers[1].ln.accepts.Load()}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				u := g*perGoroutine + i
				claims := claimsFor(u, 1, cfg.NumObjects)
				receipt, err := coord.Submit(context.Background(), toSubmission(userID(u), claims))
				if err == nil && (receipt.Accepted != len(claims) || receipt.Window != 1) {
					err = fmt.Errorf("receipt %+v for %d claims in window 1", receipt, len(claims))
				}
				if err != nil {
					errs <- fmt.Errorf("user %d: %w", u, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var want int64
	for u := 0; u < goroutines*perGoroutine; u++ {
		want += int64(len(claimsFor(u, 1, cfg.NumObjects)))
	}
	// With reuse each goroutine holds at most one connection at a time.
	// Without it every claim dials, and the boot connection's accept may
	// land after before was read.
	maxAccepts := int64(goroutines)
	if !idleConnsReused {
		maxAccepts = goroutines*perGoroutine + 1
	}
	var held int64
	for i, w := range workers {
		held += w.srv.Engine().TotalClaims()
		if got := w.ln.accepts.Load() - before[i]; got > maxAccepts {
			t.Errorf("worker %d accepted %d connections for %d goroutines, want at most %d", i, got, goroutines, maxAccepts)
		}
	}
	if held != want || coord.Campaign().TotalClaims != want {
		t.Fatalf("workers hold %d claims, the campaign counts %d, want %d", held, coord.Campaign().TotalClaims, want)
	}
}

// TestCoordinatorRefusesWorkerURLs: a worker URL that is not http or
// https, or names no host, fails NewCoordinator with ErrBadConfig before
// any worker is contacted.
func TestCoordinatorRefusesWorkerURLs(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	for _, u := range []string{"ftp://127.0.0.1:1", "127.0.0.1:1", "http://", "http:///v1", "https://:443", "unix:///tmp/w.sock"} {
		if _, err := NewCoordinator(Config{Name: "urls", Engine: cfg, Workers: []string{u}}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("worker %q: err = %v, want ErrBadConfig", u, err)
		}
	}
}

// wrappedTransport hides the *http.Transport it delegates to.
type wrappedTransport struct{ http.RoundTripper }

// TestForwardHTTPSWorker: claims to an https worker are verified with
// the TLS configuration of Config.HTTPClient's transport, and two claims
// share one connection (where idle connections are reused). A
// coordinator whose HTTPClient trusts the worker through a transport the
// claims cannot see fails at boot with ErrBadConfig naming the
// certificate, not at its first claim.
func TestForwardHTTPSWorker(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	w := startCountedWorker(t, cfg, true, nil)
	coord, err := NewCoordinator(Config{Name: "tls", Engine: cfg, Workers: []string{w.ts.URL}, HTTPClient: w.ts.Client()})
	if err != nil {
		t.Fatalf("coordinator over https: %v", err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	for u := 0; u < 2; u++ {
		if _, err := coord.Submit(context.Background(), crowd.Submission{ClientID: userID(u), Claims: []crowd.Claim{{Object: 0, Value: 1}}}); err != nil {
			t.Fatalf("claim %d to a trusted https worker: %v", u, err)
		}
	}
	if got, want := w.claimConnsSince(0), sequentialConns(2); got != want {
		t.Fatalf("two claims came over %d TLS connections, want %d", got, want)
	}

	hidden := &http.Client{Transport: wrappedTransport{w.ts.Client().Transport}}
	_, err = NewCoordinator(Config{Name: "tls", Engine: cfg, Workers: []string{w.ts.URL}, HTTPClient: hidden})
	if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("claims that cannot verify the worker: err = %v, want ErrBadConfig over a certificate error", err)
	}
	if got := w.claimCount(); got != 2 {
		t.Fatalf("the worker saw %d claims, want the 2 of the trusting coordinator", got)
	}
}

// TestBootFailureClosesClaimConnections: a coordinator that fails at
// boot closes the claim connection it opened to a worker that passed,
// so the worker sees every connection closed.
func TestBootFailureClosesClaimConnections(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	good := startCountedWorker(t, cfg, false, nil)
	other := startCountedWorker(t, stream.Config{NumObjects: 3}, false, nil)
	tr := &http.Transport{}
	_, err := NewCoordinator(Config{Name: "boot", Engine: cfg, Workers: []string{good.ts.URL, other.ts.URL}, HTTPClient: &http.Client{Transport: tr}})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("boot over a worker serving 3 objects: err = %v, want ErrBadConfig", err)
	}
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); good.ln.closes.Load() < good.ln.accepts.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker still holds %d of its %d connections open after the failed boot",
				good.ln.accepts.Load()-good.ln.closes.Load(), good.ln.accepts.Load())
		}
	}
}

package pptd_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pptd"
	"pptd/internal/obs/obstest"
)

// newObsNode boots a full node — accounted stream engine with a pinned
// shard count, durable persistence — and drives a
// fixed request sequence, so the set of metric series the node exposes
// is deterministic. It returns the test server; the node and server are
// cleaned up with the test.
func newObsNode(t *testing.T) *httptest.Server {
	t.Helper()
	n, err := pptd.NewNode(
		pptd.WithName("obs"),
		pptd.WithStreamConfig(pptd.StreamConfig{
			NumObjects: 4, NumShards: 2,
			Lambda1: 1, Lambda2: targetLambda2(t, 1, 1, 1e-5), Delta: 1e-5,
		}),
		pptd.WithPersistence(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)

	c, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.StreamCampaign(ctx); err != nil {
		t.Fatal(err)
	}
	// Three error envelopes, three distinct codes: truths before the
	// first close (not_ready), an unmounted path (not_found), and a POST
	// against the GET-only exposition (method_not_allowed).
	if _, err := c.StreamTruths(ctx); !errors.Is(err, pptd.ErrNotReady) {
		t.Fatalf("truths before the first close: err = %v, want ErrNotReady", err)
	}
	if _, err := c.StreamSubmit(ctx, pptd.CampaignSubmission{
		ClientID: "alice",
		Claims:   []pptd.CampaignClaim{{Object: 0, Value: 1}, {Object: 1, Value: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamCloseWindow(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTruths(ctx); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/does-not-exist"},
		{http.MethodPost, "/metrics"},
	} {
		resp, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(resp)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}
	// Prime the scrape route's own request counters, so the golden scrape
	// sees a stable series set that includes GET /metrics itself.
	scrapeMetrics(t, ts)
	return ts
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != pptd.MetricsTextContentType {
		t.Fatalf("content type = %q, want %q", got, pptd.MetricsTextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// normalizeMetrics replaces every sample value with a placeholder,
// leaving names, labels, ordering, and HELP/TYPE lines — the structure
// the golden file pins. Values are timing- and load-dependent; the
// value-level contracts are asserted by the round-trip and agreement
// tests instead.
func normalizeMetrics(text string) string {
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		if idx := strings.LastIndexByte(ln, ' '); idx >= 0 {
			lines[i] = ln[:idx] + " <value>"
		}
	}
	return strings.Join(lines, "\n")
}

// TestNodeMetricsGolden pins the structure of the node's /metrics
// exposition — the family set, HELP and TYPE lines, label names and
// values, sample ordering, escaping — against testdata/metrics.golden.
// Regenerate after intentional changes with:
//
//	go test -run TestNodeMetricsGolden . -update
func TestNodeMetricsGolden(t *testing.T) {
	ts := newObsNode(t)
	got := normalizeMetrics(scrapeMetrics(t, ts))

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestNodeMetricsGolden . -update)", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("metrics exposition drifted at line %d:\n  golden: %s\n  now:    %s\n"+
					"If this change is intentional, regenerate with: go test -run TestNodeMetricsGolden . -update",
					i+1, w, g)
			}
		}
	}
}

// TestNodeMetricsRoundTrip feeds a live node's scrape through the
// package's own exposition parser, which validates names, escapes, and
// histogram invariants (monotone buckets, +Inf == _count), and checks a
// few deterministic values against the traffic newObsNode drove.
func TestNodeMetricsRoundTrip(t *testing.T) {
	ts := newObsNode(t)
	text := scrapeMetrics(t, ts)
	p, err := obstest.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse /metrics: %v\n%s", err, text)
	}
	mustValue := func(want float64, name string, labelPairs ...string) {
		t.Helper()
		v, err := p.Value(name, labelPairs...)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		if v != want {
			t.Errorf("%s%v = %v, want %v", name, labelPairs, v, want)
		}
	}
	mustValue(2, "pptd_stream_claims_ingested_total")
	mustValue(1, "pptd_stream_windows_closed_total")
	mustValue(1, "pptd_stream_tracked_users")
	mustValue(1, "pptd_errors_total", "code", "not_ready")
	mustValue(1, "pptd_errors_total", "code", "not_found")
	mustValue(1, "pptd_errors_total", "code", "method_not_allowed")
	mustValue(1, "pptd_http_requests_total",
		"route", "/v1/stream/claims", "method", "POST", "code", "200")
	mustValue(1, "pptd_http_requests_total",
		"route", "unmatched", "method", "GET", "code", "404")
	// The durable charge was journaled before the receipt: exactly one
	// append and one sync for alice's accepted submission.
	if v, err := p.Value("pptd_store_journal_appends_total"); err != nil || v < 1 {
		t.Errorf("journal appends = %v, %v; want >= 1", v, err)
	}
}

var hexRequestID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestNodeRequestIDEcho drives the correlation contract over the wire:
// a valid client ID is echoed on success and on error envelopes (which
// also carry X-Error-Code), an absent or invalid ID is replaced with a
// generated one, and the Go client surfaces the echo on failures.
func TestNodeRequestIDEcho(t *testing.T) {
	ts := newObsNode(t)

	do := func(method, path, reqID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp
	}

	if resp := do(http.MethodGet, "/v1/stream/campaign", "trace-42"); resp.Header.Get("X-Request-ID") != "trace-42" {
		t.Errorf("success echo = %q, want trace-42", resp.Header.Get("X-Request-ID"))
	}
	resp := do(http.MethodGet, "/v1/stream/truths?window=42", "trace-err")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown window status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-err" {
		t.Errorf("error-envelope echo = %q, want trace-err", got)
	}
	if got := resp.Header.Get("X-Error-Code"); got != "unknown_window" {
		t.Errorf("X-Error-Code = %q, want unknown_window", got)
	}
	if resp := do(http.MethodGet, "/v1/stream/campaign", ""); !hexRequestID.MatchString(resp.Header.Get("X-Request-ID")) {
		t.Errorf("generated ID = %q, want 16 hex chars", resp.Header.Get("X-Request-ID"))
	}
	if resp := do(http.MethodGet, "/v1/stream/campaign", "has space"); !hexRequestID.MatchString(resp.Header.Get("X-Request-ID")) {
		t.Errorf("invalid ID replacement = %q, want 16 hex chars", resp.Header.Get("X-Request-ID"))
	}

	c, err := pptd.NewClient(ts.URL, pptd.WithRequestID("cli-run-7"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StreamSubmit(context.Background(), pptd.CampaignSubmission{
		ClientID: "d", Claims: []pptd.CampaignClaim{{Object: 99, Value: 1}},
	})
	var httpErr *pptd.CampaignHTTPError
	if !errors.As(err, &httpErr) {
		t.Fatalf("out-of-range claim error = %v, want *CampaignHTTPError", err)
	}
	if httpErr.RequestID != "cli-run-7" {
		t.Errorf("HTTPError.RequestID = %q, want cli-run-7", httpErr.RequestID)
	}
	if _, err := pptd.NewClient(ts.URL, pptd.WithRequestID("bad id")); err == nil {
		t.Error("NewClient accepted a request ID with a space")
	}
}

// TestNodeDebugHandlers: pprof is opt-in — mounted under /debug/pprof/
// with WithDebugHandlers, a not_found envelope without it.
func TestNodeDebugHandlers(t *testing.T) {
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 2}),
		pptd.WithDebugHandlers(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with WithDebugHandlers status = %d", resp.StatusCode)
	}

	plain := newObsNode(t)
	resp, err = http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without WithDebugHandlers status = %d", resp.StatusCode)
	}
	var eb pptd.APIErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Code != "not_found" {
		t.Fatalf("undebugged pprof miss = (%+v, %v), want not_found envelope", eb, err)
	}
}

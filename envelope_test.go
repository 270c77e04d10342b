package pptd_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pptd"
)

// checkEnvelope asserts one response is the versioned error envelope:
// exact status, exact code, version 1, non-empty message, and the
// expected retry hint. It also asserts the raw JSON carries the stable
// key names (the golden shape non-Go clients parse).
func checkEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string, wantRetry int) {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, wantStatus, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("body is not JSON: %v (%s)", err, raw)
	}
	for _, k := range []string{"v", "code", "message"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("envelope missing key %q: %s", k, raw)
		}
	}
	var eb pptd.APIErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.V != 1 {
		t.Errorf("envelope version = %d, want 1", eb.V)
	}
	if eb.Code != wantCode {
		t.Errorf("code = %q, want %q (message %q)", eb.Code, wantCode, eb.Message)
	}
	if eb.Message == "" {
		t.Error("empty message")
	}
	if eb.RetryAfterWindows != wantRetry {
		t.Errorf("retry_after_windows = %d, want %d", eb.RetryAfterWindows, wantRetry)
	}
}

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestErrorEnvelopeGolden drives every endpoint of a full node (an
// accounted durable stream) into each reachable error state and asserts
// the envelope's exact {status, code, retry_after_windows} — the wire
// contract docs/API.md documents.
func TestErrorEnvelopeGolden(t *testing.T) {
	dir := t.TempDir()
	streamCfg := pptd.StreamConfig{
		NumObjects: 2, Lambda1: 1.5, Lambda2: 2, Delta: 0.3,
		// Tight budget: the second window is unaffordable.
		EpsilonBudget: 100,
	}
	n, err := pptd.NewNode(
		pptd.WithStreamConfig(streamCfg),
		pptd.WithPersistence(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	sub := `{"clientId":"u1","claims":[{"object":0,"value":1},{"object":1,"value":2}]}`

	// --- method mismatches: every endpoint speaks method_not_allowed.
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, "/v1/stream/campaign"},
		{http.MethodGet, "/v1/stream/claims"},
		{http.MethodPost, "/v1/stream/truths"},
		{http.MethodGet, "/v1/stream/window"},
	} {
		checkEnvelope(t, doReq(t, ep.method, ts.URL+ep.path, ""),
			http.StatusMethodNotAllowed, "method_not_allowed", 0)
	}

	// --- not-yet states.
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/stream/truths", ""),
		http.StatusNotFound, "not_ready", 0)
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/stream/truths?window=1", ""),
		http.StatusNotFound, "not_ready", 0)
	checkEnvelope(t, doReq(t, http.MethodPost, ts.URL+"/v1/stream/window", ""),
		http.StatusConflict, "empty_window", 0)

	// --- malformed requests.
	checkEnvelope(t, doReq(t, http.MethodPost, ts.URL+"/v1/stream/claims", "{nope"),
		http.StatusBadRequest, "bad_request", 0)
	checkEnvelope(t, doReq(t, http.MethodPost, ts.URL+"/v1/stream/claims",
		`{"clientId":"u1","claims":[{"object":99,"value":1}]}`),
		http.StatusBadRequest, "bad_request", 0)
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/stream/truths?window=abc", ""),
		http.StatusBadRequest, "bad_request", 0)
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/stream/truths?window=-2", ""),
		http.StatusBadRequest, "bad_request", 0)

	// --- stream conflicts: duplicate submission carries the retry hint.
	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/stream/claims", sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed stream submission: %d", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	checkEnvelope(t, doReq(t, http.MethodPost, ts.URL+"/v1/stream/claims", sub),
		http.StatusConflict, "duplicate_window", 1)

	// --- budget exhaustion: close the first window (spending ~67 of the
	// 100 budget), then the same user cannot afford window two.
	if resp := doReq(t, http.MethodPost, ts.URL+"/v1/stream/window", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("close window: %d", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	checkEnvelope(t, doReq(t, http.MethodPost, ts.URL+"/v1/stream/claims", sub),
		http.StatusTooManyRequests, "budget_exhausted", 0)

	// --- history miss once an estimate exists.
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/stream/truths?window=42", ""),
		http.StatusNotFound, "unknown_window", 0)

	// --- unknown path on the front door.
	checkEnvelope(t, doReq(t, http.MethodGet, ts.URL+"/v1/does-not-exist", ""),
		http.StatusNotFound, "not_found", 0)

	// --- the same contract after a kill-and-recover: close the node,
	// reopen the state directory, and re-assert representative codes on
	// the recovered instance (the exhausted user stays exhausted, history
	// misses stay typed, duplicate windows keep their retry hint).
	ts.Close()
	if err := n.Close(); err != nil {
		t.Fatalf("close node: %v", err)
	}
	n2, err := pptd.NewNode(
		pptd.WithStreamConfig(streamCfg),
		pptd.WithPersistence(dir),
	)
	if err != nil {
		t.Fatalf("recover node: %v", err)
	}
	defer func() { _ = n2.Close() }()
	ts2 := httptest.NewServer(n2.Handler())
	defer ts2.Close()

	checkEnvelope(t, doReq(t, http.MethodPost, ts2.URL+"/v1/stream/claims", sub),
		http.StatusTooManyRequests, "budget_exhausted", 0)
	checkEnvelope(t, doReq(t, http.MethodGet, ts2.URL+"/v1/stream/truths?window=42", ""),
		http.StatusNotFound, "unknown_window", 0)
	checkEnvelope(t, doReq(t, http.MethodGet, ts2.URL+"/v1/stream/truths?window=abc", ""),
		http.StatusBadRequest, "bad_request", 0)
	fresh := `{"clientId":"u-fresh","claims":[{"object":0,"value":1}]}`
	if resp := doReq(t, http.MethodPost, ts2.URL+"/v1/stream/claims", fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh user on recovered node: %d", resp.StatusCode)
	} else {
		_ = resp.Body.Close()
	}
	checkEnvelope(t, doReq(t, http.MethodPost, ts2.URL+"/v1/stream/claims", fresh),
		http.StatusConflict, "duplicate_window", 1)
	// The retired batch routes fall through to the front door's
	// envelope 404.
	checkEnvelope(t, doReq(t, http.MethodGet, ts2.URL+"/v1/campaign", ""),
		http.StatusNotFound, "not_found", 0)
}

package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pptd/internal/obs/obstest"
)

func TestMiddlewareMetricsAndRequestID(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	var seenCtxID string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenCtxID = RequestID(r.Context())
		switch r.URL.Path {
		case "/boom":
			w.Header().Set(HeaderErrorCode, "internal")
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			w.Write([]byte("ok"))
		}
	})
	h := Middleware(MiddlewareConfig{
		Registry: reg,
		Logger:   logger,
		Route:    func(r *http.Request) (http.Handler, string) { return nil, "/fixed" },
	})(inner)

	// Client-supplied ID is echoed and installed in the context.
	req := httptest.NewRequest("GET", "/ok", nil)
	req.Header.Set(HeaderRequestID, "client-id-1")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(HeaderRequestID); got != "client-id-1" {
		t.Fatalf("echoed request ID = %q, want client-id-1", got)
	}
	if seenCtxID != "client-id-1" {
		t.Fatalf("context request ID = %q, want client-id-1", seenCtxID)
	}

	// Absent (or invalid) IDs are generated; errors are counted by code.
	req = httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set(HeaderRequestID, "has spaces so invalid")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	gen := rr.Header().Get(HeaderRequestID)
	if gen == "" || gen == "has spaces so invalid" {
		t.Fatalf("generated request ID = %q", gen)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	p, err := obstest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse middleware exposition: %v\n%s", err, b.String())
	}
	if v, err := p.Value("pptd_http_requests_total",
		"route", "/fixed", "method", "GET", "code", "200"); err != nil || v != 1 {
		t.Fatalf("requests 200 = %v, %v", v, err)
	}
	if v, err := p.Value("pptd_http_requests_total",
		"route", "/fixed", "method", "GET", "code", "500"); err != nil || v != 1 {
		t.Fatalf("requests 500 = %v, %v", v, err)
	}
	if v, err := p.Value("pptd_http_request_duration_seconds_count", "route", "/fixed"); err != nil || v != 2 {
		t.Fatalf("duration count = %v, %v", v, err)
	}
	if v, err := p.Value("pptd_errors_total", "code", "internal"); err != nil || v != 1 {
		t.Fatalf("errors internal = %v, %v", v, err)
	}
	if v, err := p.Value("pptd_http_requests_in_flight"); err != nil || v != 0 {
		t.Fatalf("in flight = %v, %v", v, err)
	}

	logs := logBuf.String()
	for _, want := range []string{`"request_id":"client-id-1"`, `"status":500`,
		`"error_code":"internal"`, `"route":"/fixed"`, `"msg":"http_request"`} {
		if !strings.Contains(logs, want) {
			t.Fatalf("log output missing %q:\n%s", want, logs)
		}
	}
}

func TestMiddlewareNilRegistryAndLogger(t *testing.T) {
	h := Middleware(MiddlewareConfig{})(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusNoContent {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Header().Get(HeaderRequestID) == "" {
		t.Fatal("no request ID without a registry")
	}
}

func TestValidRequestID(t *testing.T) {
	if validRequestID("") || validRequestID(strings.Repeat("a", 200)) ||
		validRequestID("has space") || validRequestID("non\x01printable") {
		t.Fatal("invalid IDs accepted")
	}
	if !validRequestID("bench-42") || !validRequestID(NewRequestID()) {
		t.Fatal("valid IDs rejected")
	}
}

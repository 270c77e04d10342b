package crowd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEnvelopeDecodeError pins what the client reports when a non-2xx
// response carries a body that is not the versioned error envelope — a
// proxy error page, a truncated response, an unrelated server. The old
// behavior silently discarded the decode failure and reported a bare
// status; now the typed error carries the status and the first bytes of
// the body, so a misrouted client can actually be diagnosed.
func TestEnvelopeDecodeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "<html><body>upstream connect error</body></html>", strings.Repeat("x", 1024))
	}))
	defer ts.Close()

	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.StreamSubmit(context.Background(), Submission{
		ClientID: "dev", Claims: []Claim{{Object: 0, Value: 1}},
	})
	var decErr *EnvelopeDecodeError
	if !errors.As(err, &decErr) {
		t.Fatalf("err = %v (%T), want *EnvelopeDecodeError", err, err)
	}
	if decErr.StatusCode != http.StatusBadGateway {
		t.Errorf("StatusCode = %d, want 502", decErr.StatusCode)
	}
	if !strings.HasPrefix(string(decErr.BodyPrefix), "<html><body>upstream connect error") {
		t.Errorf("BodyPrefix = %q, want the response's first bytes", decErr.BodyPrefix)
	}
	if len(decErr.BodyPrefix) > errorBodyPrefixBytes {
		t.Errorf("BodyPrefix is %d bytes, cap is %d", len(decErr.BodyPrefix), errorBodyPrefixBytes)
	}
	if decErr.Err == nil {
		t.Error("Err (the decode failure) is nil")
	}
	if msg := decErr.Error(); !strings.Contains(msg, "502") || !strings.Contains(msg, "upstream connect error") {
		t.Errorf("Error() = %q: want the status and body prefix in the message", msg)
	}

	// An empty error body keeps the legacy bare-status path: HTTPError
	// with no code, not an envelope-decode failure.
	tsEmpty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer tsEmpty.Close()
	clientEmpty, err := NewClient(tsEmpty.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = clientEmpty.StreamSubmit(context.Background(), Submission{
		ClientID: "dev", Claims: []Claim{{Object: 0, Value: 1}},
	})
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.Code != "" {
		t.Fatalf("empty-body error = %v, want bare *HTTPError with empty code", err)
	}
}

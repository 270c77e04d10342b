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

// TestWrongServer404IsNotNotReady: a client pointed at a server that
// does not speak the envelope — here Go's plain "404 page not found" —
// reports that server's error, not ErrNotReady ("no window closed
// yet"), which only the not_ready envelope code maps to.
func TestWrongServer404IsNotNotReady(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"plain text": http.NotFound,
		"empty body": func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) },
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(h)
			defer ts.Close()
			client, err := NewClient(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.StreamTruths(context.Background())
			var httpErr *HTTPError
			var decErr *EnvelopeDecodeError
			if err == nil || errors.Is(err, ErrNotReady) || !(errors.As(err, &httpErr) || errors.As(err, &decErr)) {
				t.Fatalf("truths from a non-envelope 404 = %v, want its HTTP error and not ErrNotReady", err)
			}
		})
	}
}

// TestErrorTaxonomyRoundTrip sends every errorTaxonomy row's sentinel
// through the envelope and back through Client: the decoded error
// carries the row's status, code and retry hint, and satisfies
// errors.Is against the sentinel the client maps that code to.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	for _, row := range errorTaxonomy {
		t.Run(row.code, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				WriteAPIError(w, fmt.Errorf("handler: %w", row.sentinel))
			}))
			defer ts.Close()
			client, err := NewClient(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.StreamSubmit(context.Background(), Submission{
				ClientID: "dev", Claims: []Claim{{Object: 0, Value: 1}},
			})
			want, ok := sentinelByCode[row.code]
			if !ok {
				t.Fatalf("code %q has no client sentinel", row.code)
			}
			if !errors.Is(err, want) {
				t.Errorf("err = %v, want errors.Is %v", err, want)
			}
			var httpErr *HTTPError
			if !errors.As(err, &httpErr) {
				t.Fatalf("err = %v (%T), want an *HTTPError in the chain", err, err)
			}
			if httpErr.StatusCode != row.status || httpErr.Code != row.code || httpErr.RetryAfterWindows != row.retry {
				t.Errorf("got (%d, %q, retry %d), want (%d, %q, retry %d)",
					httpErr.StatusCode, httpErr.Code, httpErr.RetryAfterWindows, row.status, row.code, row.retry)
			}
		})
	}
	if status, code, _ := errorStatus(errors.New("disk on fire")); status != http.StatusInternalServerError || code != CodeInternal {
		t.Errorf("an unlisted error maps to (%d, %q), want (500, %q)", status, code, CodeInternal)
	}
}

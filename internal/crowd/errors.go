package crowd

import (
	"errors"
	"fmt"
	"net/http"

	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// ErrUnknownWindow reports a history read (GET /v1/stream/truths?window=N)
// for a window that never closed or that the bounded result history has
// already evicted. It is distinct from ErrNotReady — the stream may be
// perfectly live; this particular window is just not retained.
var ErrUnknownWindow = errors.New("crowd: window not in retained history")

// ErrWorkerUnavailable reports that a cluster coordinator could not
// reach the worker owning the request's user shard. The claim was not
// ingested anywhere; retrying once the worker is back succeeds with no
// duplicate-submission risk.
var ErrWorkerUnavailable = errors.New("crowd: shard worker unavailable")

// ErrPayloadTooLarge reports a request body over the route's size cap
// (see DefaultMaxRequestBytes and the servers' MaxRequestBytes
// options). The request was refused before being buffered; nothing was
// ingested. Splitting the submission into smaller batches succeeds.
var ErrPayloadTooLarge = errors.New("crowd: request body too large")

// Machine-readable error codes carried by every non-2xx response
// (ErrorBody.Code). Codes are the stable contract: HTTP status codes are
// derived from them and clients should branch on the code (or on the
// typed errors the Client decodes them into), never on the message text.
const (
	// CodeBadRequest: the request body or query is malformed — an
	// undecodable JSON body, an out-of-range object index, a non-finite
	// value, a duplicate object within one batch, or a bad ?window=
	// parameter. HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: the endpoint exists but not for this HTTP
	// method. HTTP 405.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no route is mounted at this path (the unified Node
	// front door serves the envelope even for unknown paths). HTTP 404.
	CodeNotFound = "not_found"
	// CodeNotReady: the requested artifact (the latest stream estimate)
	// does not exist yet. HTTP 404.
	CodeNotReady = "not_ready"
	// CodeUnknownWindow: an explicit ?window=N history read for a window
	// that never closed or was evicted from the bounded ring. HTTP 404.
	CodeUnknownWindow = "unknown_window"
	// CodeDuplicateWindow: a second streaming submission from the same
	// user into one open window while privacy accounting is enabled; the
	// envelope carries RetryAfterWindows = 1. HTTP 409.
	CodeDuplicateWindow = "duplicate_window"
	// CodeEmptyWindow: a window close with no live statistic — no claim
	// ever arrived, or every one has decayed away. HTTP 409.
	CodeEmptyWindow = "empty_window"
	// CodeEngineClosed: the streaming engine behind the endpoint has shut
	// down. HTTP 410.
	CodeEngineClosed = "engine_closed"
	// CodeBudgetExhausted: the user's cumulative privacy budget cannot
	// afford another window. HTTP 429.
	CodeBudgetExhausted = "budget_exhausted"
	// CodePayloadTooLarge: the request body exceeds the route's size cap
	// and was refused before being buffered (ErrPayloadTooLarge). HTTP 413.
	CodePayloadTooLarge = "payload_too_large"
	// CodeWorkerUnavailable: a cluster coordinator could not reach the
	// worker owning this user's shard; the message names the worker. The
	// claim was not ingested — retry when the worker recovers. HTTP 503.
	CodeWorkerUnavailable = "worker_unavailable"
	// CodeInternal: an unexpected server-side failure (for a durable
	// deployment, typically a persistence error). HTTP 500.
	CodeInternal = "internal"
)

// errorTaxonomy is the one table of the error taxonomy: each sentinel
// with the stable envelope code it travels as, the HTTP status derived
// from the code, and the retry hint in windows (0 = no hint). The
// server walks it in order (errorStatus); the client decodes a code to
// the first row's sentinel for it (sentinelByCode). One table keeps the
// node's handlers, the coordinator's and the client from drifting apart.
var errorTaxonomy = []struct {
	sentinel error
	code     string
	status   int
	retry    int
}{
	{ErrBadSubmission, CodeBadRequest, http.StatusBadRequest, 0},
	{stream.ErrBadClaim, CodeBadRequest, http.StatusBadRequest, 0},
	{ErrUnknownWindow, CodeUnknownWindow, http.StatusNotFound, 0},
	{ErrNotReady, CodeNotReady, http.StatusNotFound, 0},
	// The charge that blocks this user expires when the open window
	// closes: retrying one window later succeeds.
	{stream.ErrDuplicateWindow, CodeDuplicateWindow, http.StatusConflict, 1},
	{stream.ErrEmptyWindow, CodeEmptyWindow, http.StatusConflict, 0},
	{stream.ErrEngineClosed, CodeEngineClosed, http.StatusGone, 0},
	{streamstore.ErrClosed, CodeEngineClosed, http.StatusGone, 0},
	{stream.ErrBudgetExhausted, CodeBudgetExhausted, http.StatusTooManyRequests, 0},
	{ErrPayloadTooLarge, CodePayloadTooLarge, http.StatusRequestEntityTooLarge, 0},
	{ErrWorkerUnavailable, CodeWorkerUnavailable, http.StatusServiceUnavailable, 0},
}

// errorStatus maps one server-side error to its wire form: the first
// errorTaxonomy row whose sentinel err matches, else a 500 internal.
func errorStatus(err error) (status int, code string, retryAfterWindows int) {
	for _, row := range errorTaxonomy {
		if errors.Is(err, row.sentinel) {
			return row.status, row.code, row.retry
		}
	}
	return http.StatusInternalServerError, CodeInternal, 0
}

// sentinelByCode is the client-side inverse of errorTaxonomy: the typed
// error a decoded envelope code unwraps to, so callers can match with
// errors.Is against package sentinels instead of inspecting codes or
// status numbers.
var sentinelByCode = func() map[string]error {
	m := make(map[string]error, len(errorTaxonomy))
	for _, row := range errorTaxonomy {
		if _, ok := m[row.code]; !ok {
			m[row.code] = row.sentinel
		}
	}
	return m
}()

// WriteAPIError answers one failed request with the versioned envelope,
// deriving status, code, and retry hint from the error taxonomy. An
// *HTTPError in err's chain — a worker's own envelope, decoded by the
// coordinator's Client while proxying — is re-emitted with the worker's
// status, code, and retry hint, so a budget-exhausted user sees the same
// 429 through the coordinator as against the worker directly.
func WriteAPIError(w http.ResponseWriter, err error) {
	var httpErr *HTTPError
	if errors.As(err, &httpErr) && httpErr.Code != "" {
		writeEnvelope(w, httpErr.StatusCode, httpErr.Code, httpErr.Message, httpErr.RetryAfterWindows)
		return
	}
	status, code, retry := errorStatus(err)
	writeEnvelope(w, status, code, err.Error(), retry)
}

// WriteError emits the envelope for handler-level failures that carry no
// taxonomy error (method mismatches, undecodable bodies).
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeEnvelope(w, status, code, msg, 0)
}

// writeDecodeError answers a failed request-body decode: a body-cap hit
// (http.MaxBytesReader's error anywhere in the chain) is the 413
// payload_too_large envelope, anything else a plain 400. Every POST
// handler funnels its decode failures through here so the cap speaks
// one wire contract across routes and wire formats.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		WriteError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Sprintf("%s: request body exceeds the %d-byte route cap", what, maxErr.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("%s: %v", what, err))
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string, retry int) {
	// Mirror the envelope's code into a response header: header-only
	// clients (and the node's metrics middleware, which counts envelope
	// emissions per code) can read it without parsing the body.
	w.Header().Set(HeaderErrorCode, code)
	WriteJSON(w, status, ErrorBody{
		V:                 ErrorEnvelopeVersion,
		Code:              code,
		Message:           msg,
		RetryAfterWindows: retry,
	})
}

// GetOnly restricts h to the GET method, answering anything else with
// the JSON error envelope (code "method_not_allowed"), and echoes the
// request-correlation header like every registered route. It keeps
// non-JSON endpoints mounted next to the API — the node's /metrics
// exposition, debug handlers — on the same error contract.
func GetOnly(h http.Handler) http.Handler {
	return route(http.MethodGet, h.ServeHTTP)
}

// NotFoundHandler serves the JSON error envelope for paths no route is
// mounted at, so even a miss against the unified front door speaks the
// same wire contract as every real endpoint.
func NotFoundHandler() http.Handler {
	return EchoRequestID(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no route for "+r.URL.Path)
	})
}

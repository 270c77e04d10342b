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
	// CodeEmptyWindow: a window close before any claim ever arrived.
	// HTTP 409.
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

// errorStatus maps one server-side error to its wire form: the stable
// envelope code, the HTTP status derived from it, and the retry hint in
// windows (0 = no hint). It is the single place the error taxonomy lives,
// so the node's and the coordinator's handlers cannot drift apart.
func errorStatus(err error) (status int, code string, retryAfterWindows int) {
	switch {
	case errors.Is(err, ErrBadSubmission), errors.Is(err, stream.ErrBadClaim):
		return http.StatusBadRequest, CodeBadRequest, 0
	case errors.Is(err, ErrUnknownWindow):
		return http.StatusNotFound, CodeUnknownWindow, 0
	case errors.Is(err, ErrNotReady):
		return http.StatusNotFound, CodeNotReady, 0
	case errors.Is(err, stream.ErrDuplicateWindow):
		// The charge that blocks this user expires when the open window
		// closes: retrying one window later succeeds.
		return http.StatusConflict, CodeDuplicateWindow, 1
	case errors.Is(err, stream.ErrEmptyWindow):
		return http.StatusConflict, CodeEmptyWindow, 0
	case errors.Is(err, stream.ErrEngineClosed), errors.Is(err, streamstore.ErrClosed):
		return http.StatusGone, CodeEngineClosed, 0
	case errors.Is(err, stream.ErrBudgetExhausted):
		return http.StatusTooManyRequests, CodeBudgetExhausted, 0
	case errors.Is(err, ErrPayloadTooLarge):
		return http.StatusRequestEntityTooLarge, CodePayloadTooLarge, 0
	case errors.Is(err, ErrWorkerUnavailable):
		return http.StatusServiceUnavailable, CodeWorkerUnavailable, 0
	default:
		return http.StatusInternalServerError, CodeInternal, 0
	}
}

// sentinelByCode is the client-side inverse of errorStatus: the typed
// error a decoded envelope code unwraps to, so callers can match with
// errors.Is against package sentinels instead of inspecting codes or
// status numbers.
var sentinelByCode = map[string]error{
	CodeBadRequest:        ErrBadSubmission,
	CodeNotReady:          ErrNotReady,
	CodeUnknownWindow:     ErrUnknownWindow,
	CodeDuplicateWindow:   stream.ErrDuplicateWindow,
	CodeEmptyWindow:       stream.ErrEmptyWindow,
	CodeEngineClosed:      stream.ErrEngineClosed,
	CodeBudgetExhausted:   stream.ErrBudgetExhausted,
	CodePayloadTooLarge:   ErrPayloadTooLarge,
	CodeWorkerUnavailable: ErrWorkerUnavailable,
}

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

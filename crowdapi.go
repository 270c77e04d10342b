package pptd

import (
	"net/http"

	"pptd/internal/crowd"
)

// Client talks to a pptd node (or a standalone campaign server) over
// HTTP: the streaming campaign and its history reads through one
// client. Non-2xx responses are decoded from the
// versioned error envelope into typed errors — errors.Is against
// ErrNotReady, ErrDuplicateWindow, ErrBudgetExhausted, ... and errors.As
// against *CampaignHTTPError both work on the same returned error.
type Client = crowd.Client

// ClientOption configures NewClient.
type ClientOption = crowd.ClientOption

// NewClient returns a client for the node (or standalone server) at
// baseURL, e.g. "http://localhost:8080".
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	return crowd.NewClient(baseURL, opts...)
}

// WithHTTPClient substitutes the client's underlying *http.Client
// (default: 10-second timeout).
func WithHTTPClient(hc *http.Client) ClientOption {
	return crowd.WithHTTPClient(hc)
}

// WithRequestID pins the X-Request-ID header sent on every request the
// client issues, correlating one logical operation (a CLI invocation, a
// driver run) across the node's request logs. By default each request
// carries a fresh random ID; either way the server echoes the ID on the
// response, and failures surface it via CampaignHTTPError.RequestID.
func WithRequestID(id string) ClientOption {
	return crowd.WithRequestID(id)
}

// Claim submission wire formats for WithClaimWire.
const (
	// WireJSON submits stream claims as the default JSON body.
	WireJSON = crowd.WireJSON
	// WireBinary submits stream claims as length-prefixed CRC32-checked
	// binary frames under Content-Type ContentTypeClaims — the zero-copy
	// ingest hot path (see docs/WIRE.md).
	WireBinary = crowd.WireBinary
)

// ContentTypeClaims is the Content-Type that negotiates the binary
// claim frame on POST /v1/stream/claims; any other value means JSON.
const ContentTypeClaims = crowd.ContentTypeClaims

// DefaultMaxRequestBytes is the per-route POST body cap applied when no
// WithMaxRequestBytes option (or CLI flag) overrides it.
const DefaultMaxRequestBytes = crowd.DefaultMaxRequestBytes

// WithClaimWire selects the wire format for stream claim submissions:
// WireJSON (default) or WireBinary. Receipts, window results, and
// error taxonomy are identical across formats; only the request
// encoding changes.
func WithClaimWire(wire string) ClientOption {
	return crowd.WithClaimWire(wire)
}

// EnvelopeDecodeError reports a non-2xx response whose body did not
// decode as the versioned error envelope — a proxy error page, a
// pre-envelope server, or a truncated response. It carries the HTTP
// status and the first bytes of the body for diagnosis.
type EnvelopeDecodeError = crowd.EnvelopeDecodeError

// Typed API errors, decoded from the wire envelope's code by Client.
// Match with errors.Is.
var (
	// ErrNotReady reports a truths fetch before anything was
	// published (envelope code "not_ready", HTTP 404).
	ErrNotReady = crowd.ErrNotReady
	// ErrUnknownWindow reports a ?window=N history read for a window that
	// never closed or was evicted from the bounded result ring (envelope
	// code "unknown_window", HTTP 404).
	ErrUnknownWindow = crowd.ErrUnknownWindow
	// ErrBadSubmission reports a malformed submission (envelope code
	// "bad_request", HTTP 400).
	ErrBadSubmission = crowd.ErrBadSubmission
	// ErrPayloadTooLarge reports a POST body that exceeded the node's
	// request-body cap (envelope code "payload_too_large", HTTP 413).
	// Tune the cap with WithMaxRequestBytes.
	ErrPayloadTooLarge = crowd.ErrPayloadTooLarge
)

// CampaignClaim is one (object, value) report inside a submission.
type CampaignClaim = crowd.Claim

// CampaignSubmission is one user's batch of perturbed claims.
type CampaignSubmission = crowd.Submission

// CampaignHTTPError reports a non-2xx response from a campaign server:
// the HTTP status plus the decoded error envelope (stable Code, Message,
// RetryAfterWindows hint). Match it with errors.As to inspect the code;
// the same error also matches the typed sentinel for its code with
// errors.Is.
type CampaignHTTPError = crowd.HTTPError

// APIErrorBody is the versioned JSON error envelope every non-2xx
// response carries: {v, code, message, retry_after_windows?}. Clients
// normally never touch it — Client decodes it into typed errors — but
// non-Go consumers and tests can rely on its shape.
type APIErrorBody = crowd.ErrorBody

// CampaignUser models a participant device holding original readings
// that never leave the device unperturbed.
type CampaignUser = crowd.User

// NewCampaignUser returns a user with the given original readings and
// device-local randomness.
func NewCampaignUser(id string, readings []CampaignClaim, rng *RNG) (*CampaignUser, error) {
	return crowd.NewUser(id, readings, rng)
}

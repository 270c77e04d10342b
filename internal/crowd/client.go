package crowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pptd/internal/core"
	"pptd/internal/obs"
	"pptd/internal/randx"
	"pptd/internal/stream"
)

// ErrBadClient reports an invalid client configuration or argument.
var ErrBadClient = errors.New("crowd: invalid client argument")

// ErrSameWindow reports a ParticipateStream call while the server's open
// window is still the one this user already submitted into. The helper
// refuses before perturbing, so no second noisy release of the window
// ever leaves the device; close the window (or wait for the driver to)
// and call again.
var ErrSameWindow = errors.New("crowd: already submitted in the open window")

// Claim wire formats accepted by WithClaimWire.
const (
	// WireJSON submits stream claims as the default JSON body.
	WireJSON = "json"
	// WireBinary submits stream claims as the compact CRC-checked binary
	// frame (Content-Type application/x-pptd-claims; see docs/WIRE.md),
	// which the server ingests through its pooled zero-allocation path.
	WireBinary = "binary"
)

// Client talks to a campaign server. Safe for concurrent use.
type Client struct {
	baseURL string
	httpc   *http.Client
	// requestID, when non-empty, is sent as the X-Request-ID of every
	// request; otherwise each request carries its context's ID
	// (obs.RequestID) or, failing that, a fresh random one.
	requestID string
	// claimWire selects the StreamSubmit encoding: WireJSON (default) or
	// WireBinary.
	claimWire string
}

// ClientOption configures NewClient.
type ClientOption interface {
	applyClient(*Client)
}

type clientOptionFunc func(*Client)

func (f clientOptionFunc) applyClient(c *Client) { f(c) }

// WithHTTPClient substitutes the underlying *http.Client (default:
// 10-second timeout).
func WithHTTPClient(hc *http.Client) ClientOption {
	return clientOptionFunc(func(c *Client) { c.httpc = hc })
}

// WithRequestID pins the X-Request-ID header sent on every request this
// client issues — useful for correlating one logical operation (a CLI
// invocation, a batch driver run) across the server's request logs. By
// default each request carries the ID of the request its context is
// serving (obs.RequestID), or a fresh random one. The ID must satisfy
// obs.ValidRequestID (printable ASCII, at most 128 bytes) or NewClient
// fails.
func WithRequestID(id string) ClientOption {
	return clientOptionFunc(func(c *Client) { c.requestID = id })
}

// WithClaimWire selects the wire format StreamSubmit (and so the
// device helper's ParticipateStream) uses for claim batches: WireJSON
// (the default) or WireBinary, the length-prefixed CRC-checked frame
// the server decodes through its pooled hot path. Receipts, errors,
// and every other endpoint stay JSON either way. NewClient fails on
// any other value.
func WithClaimWire(wire string) ClientOption {
	return clientOptionFunc(func(c *Client) { c.claimWire = wire })
}

// NewClient returns a client for the campaign server at baseURL
// (e.g. "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("%w: empty base URL", ErrBadClient)
	}
	c := &Client{
		baseURL: baseURL,
		httpc:   &http.Client{Timeout: 10 * time.Second},
	}
	for _, o := range opts {
		o.applyClient(c)
	}
	if c.httpc == nil {
		return nil, fmt.Errorf("%w: nil http client", ErrBadClient)
	}
	if c.requestID != "" && !obs.ValidRequestID(c.requestID) {
		return nil, fmt.Errorf("%w: invalid request ID %q", ErrBadClient, c.requestID)
	}
	switch c.claimWire {
	case "", WireJSON, WireBinary:
	default:
		return nil, fmt.Errorf("%w: claim wire %q (want %q or %q)", ErrBadClient, c.claimWire, WireJSON, WireBinary)
	}
	return c, nil
}

// StreamCampaign fetches the streaming campaign metadata.
func (c *Client) StreamCampaign(ctx context.Context) (StreamCampaignInfo, error) {
	var info StreamCampaignInfo
	err := c.do(ctx, http.MethodGet, PathStreamCampaign, nil, &info)
	return info, err
}

// StreamSubmit posts one perturbed claim batch into the open window,
// encoded per the client's claim wire format (JSON by default; see
// WithClaimWire).
func (c *Client) StreamSubmit(ctx context.Context, sub Submission) (StreamReceipt, error) {
	var receipt StreamReceipt
	if c.claimWire == WireBinary {
		frame := AppendClaimFrame(nil, sub.ClientID, sub.Claims)
		err := c.doBody(ctx, http.MethodPost, PathStreamClaims, ContentTypeClaims, frame, &receipt)
		return receipt, err
	}
	err := c.do(ctx, http.MethodPost, PathStreamClaims, sub, &receipt)
	return receipt, err
}

// StreamTruths fetches the latest closed window's estimate. Until a
// window closed the server answers 404 and the returned error matches
// both errors.Is(err, ErrNotReady) and errors.As(err, **HTTPError).
func (c *Client) StreamTruths(ctx context.Context) (StreamWindowInfo, error) {
	var info StreamWindowInfo
	err := c.do(ctx, http.MethodGet, PathStreamTruths, nil, &info)
	return info, err
}

// StreamCloseWindow asks the server to close the open window and returns
// its estimate.
func (c *Client) StreamCloseWindow(ctx context.Context) (StreamWindowInfo, error) {
	var info StreamWindowInfo
	err := c.do(ctx, http.MethodPost, PathStreamWindow, nil, &info)
	return info, err
}

// maxErrorBodyBytes bounds how much of a failed response's body the
// client reads while decoding the error envelope — and how much of an
// undecodable body an EnvelopeDecodeError carries as evidence.
const (
	maxErrorBodyBytes    = 64 << 10
	errorBodyPrefixBytes = 256
)

// EnvelopeDecodeError reports a non-2xx response whose non-empty body
// did not decode as the JSON error envelope — a proxy's HTML error
// page, a truncated response, a non-pptd server. It carries the HTTP
// status and the first bytes of the body so the caller can see what
// actually answered, instead of an empty envelope masquerading as a
// well-formed server error.
type EnvelopeDecodeError struct {
	// StatusCode is the response's HTTP status.
	StatusCode int
	// RequestID echoes the response's correlation header, when present.
	RequestID string
	// BodyPrefix holds the first bytes (at most errorBodyPrefixBytes) of
	// the undecodable body.
	BodyPrefix []byte
	// Err is the JSON decode failure.
	Err error
}

func (e *EnvelopeDecodeError) Error() string {
	return fmt.Sprintf("crowd: HTTP %d with undecodable error envelope (%v); body starts %q",
		e.StatusCode, e.Err, e.BodyPrefix)
}

func (e *EnvelopeDecodeError) Unwrap() error { return e.Err }

// do issues one JSON request/response exchange.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var raw []byte
	contentType := ""
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("crowd: encode request: %w", err)
		}
		raw, contentType = buf, "application/json"
	}
	return c.doBody(ctx, method, path, contentType, raw, out)
}

// doBody issues one request with a pre-encoded body (JSON from do, or a
// binary claim frame) and decodes the JSON response.
func (c *Client) doBody(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reader)
	if err != nil {
		return fmt.Errorf("crowd: build request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// The ID is the pinned one, else the one the context already carries
	// (a request the node's middleware is serving — so a claim the
	// coordinator routes reaches the worker under the front door's ID),
	// else fresh.
	id := c.requestID
	if id == "" {
		id = obs.RequestID(ctx)
	}
	if id == "" {
		id = obs.NewRequestID()
	}
	req.Header.Set(HeaderRequestID, id)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("crowd: %s %s: %w", method, path, err)
	}
	defer func() {
		_ = resp.Body.Close()
	}()

	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
		var eb ErrorBody
		if len(bytes.TrimSpace(raw)) > 0 {
			if derr := json.Unmarshal(raw, &eb); derr != nil {
				// A non-empty body that is not the envelope: report what
				// answered instead of propagating a fabricated empty
				// envelope (the old behavior swallowed this failure).
				prefix := bytes.TrimSpace(raw)
				if len(prefix) > errorBodyPrefixBytes {
					prefix = prefix[:errorBodyPrefixBytes]
				}
				return &EnvelopeDecodeError{
					StatusCode: resp.StatusCode,
					RequestID:  resp.Header.Get(HeaderRequestID),
					BodyPrefix: append([]byte(nil), prefix...),
					Err:        derr,
				}
			}
		}
		httpErr := &HTTPError{
			StatusCode:        resp.StatusCode,
			Code:              eb.Code,
			Message:           eb.Message,
			RetryAfterWindows: eb.RetryAfterWindows,
			RequestID:         resp.Header.Get(HeaderRequestID),
		}
		// The envelope code is the stable contract: unwrap it into the
		// matching typed sentinel so callers can errors.Is against
		// package errors while errors.As still reaches the *HTTPError.
		if sentinel, ok := sentinelByCode[eb.Code]; ok {
			return fmt.Errorf("%w: %w", sentinel, httpErr)
		}
		return httpErr
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte: // a cluster worker's close export; a 204 leaves it nil
		if resp.StatusCode == http.StatusNoContent {
			return nil
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypeEngineState {
			return fmt.Errorf("%w: reply is %q, want %q", stream.ErrBadStateEncoding, ct, ContentTypeEngineState)
		}
		if *out, err = io.ReadAll(resp.Body); err != nil {
			return fmt.Errorf("crowd: read response: %w", err)
		}
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("crowd: decode response: %w", err)
	}
	return nil
}

// User models one participant's device: it holds the original readings,
// which never leave the device unperturbed.
type User struct {
	id       string
	readings []Claim
	rng      *randx.RNG

	// perturber is the device's lazily-created streaming perturber; one
	// noise variance per device per campaign, as Algorithm 2 prescribes.
	perturber *core.UserPerturber
	// lastWindow is the 1-based window of the last accepted streaming
	// submission; it backs the one-submission-per-window guard.
	lastWindow int
}

// NewUser returns a user with the given original readings. The RNG is the
// device-local randomness used for variance sampling and noise.
func NewUser(id string, readings []Claim, rng *randx.RNG) (*User, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty user id", ErrBadClient)
	}
	if len(readings) == 0 {
		return nil, fmt.Errorf("%w: user %q has no readings", ErrBadClient, id)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadClient)
	}
	own := make([]Claim, len(readings))
	copy(own, readings)
	return &User{id: id, readings: own, rng: rng}, nil
}

// ID returns the user's client ID.
func (u *User) ID() string { return u.id }

// SetReadings replaces the device's readings in place — the streaming
// analogue of taking fresh sensor measurements between submissions. Not
// safe concurrently with ParticipateStream.
func (u *User) SetReadings(readings []Claim) error {
	if len(readings) == 0 {
		return fmt.Errorf("%w: user %q has no readings", ErrBadClient, u.id)
	}
	u.readings = append(u.readings[:0], readings...)
	return nil
}

// ParticipateStream runs one streaming round of the client side: it
// fetches the streaming campaign (on the first call also learning
// lambda2 and sampling the device's private noise variance, kept for
// the lifetime of the campaign), perturbs the current readings, and
// submits them to the open window.
//
// The stream's release contract is one submission per user per window,
// and the helper enforces it on-device: when the server's open window is
// still the one the previous call submitted into, it returns
// ErrSameWindow before perturbing, so a second noisy view of the same
// readings never leaves the device (a server-side rejection would come
// too late for that). Not safe for concurrent use on the same User.
func (u *User) ParticipateStream(ctx context.Context, c *Client) (StreamReceipt, error) {
	if c == nil {
		return StreamReceipt{}, fmt.Errorf("%w: nil client", ErrBadClient)
	}
	info, err := c.StreamCampaign(ctx)
	if err != nil {
		return StreamReceipt{}, fmt.Errorf("crowd: user %q fetch stream campaign: %w", u.id, err)
	}
	if u.lastWindow > 0 && info.Window+1 == u.lastWindow {
		return StreamReceipt{}, fmt.Errorf("%w: user %q in window %d", ErrSameWindow, u.id, u.lastWindow)
	}
	if u.perturber == nil {
		if info.Lambda2 <= 0 {
			// The device never uploads unperturbed readings; a campaign
			// that publishes no perturbation rate cannot be joined.
			return StreamReceipt{}, fmt.Errorf("%w: user %q: streaming campaign %q publishes no lambda2",
				ErrBadClient, u.id, info.Name)
		}
		mech, err := core.NewMechanism(info.Lambda2)
		if err != nil {
			return StreamReceipt{}, fmt.Errorf("crowd: user %q: %w", u.id, err)
		}
		u.perturber = mech.NewUserPerturber(u.rng)
	}
	perturbed := make([]Claim, len(u.readings))
	for i, r := range u.readings {
		perturbed[i] = Claim{Object: r.Object, Value: u.perturber.Perturb(r.Value)}
	}
	receipt, err := c.StreamSubmit(ctx, Submission{ClientID: u.id, Claims: perturbed})
	if err != nil {
		return StreamReceipt{}, fmt.Errorf("crowd: user %q stream submit: %w", u.id, err)
	}
	u.lastWindow = receipt.Window
	return receipt, nil
}

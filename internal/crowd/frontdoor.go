package crowd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// StreamBackend is everything the stream front door — the four
// /v1/stream/* routes — needs from whatever sits behind it. A
// StreamServer answers from its local engine; a cluster coordinator
// routes submissions to the owning worker and answers reads from the
// merged windows it published. Both are served by the one handler set
// RegisterStream mounts, so the wire contract (method checks, body cap,
// wire negotiation, query parsing, error envelope) cannot differ
// between deployments.
type StreamBackend interface {
	// Campaign returns the streaming campaign metadata.
	Campaign() StreamCampaignInfo
	// SubmitFrame ingests one decoded claim batch into the open window.
	// The frame's buffers are only valid for the duration of the call.
	SubmitFrame(ctx context.Context, f *ClaimFrame) (StreamReceipt, error)
	// CloseWindow closes the open window and returns its estimate.
	CloseWindow() (StreamWindowInfo, error)
	// TruthsAt returns one retained closed window (1-based; 0 = latest);
	// weights adds its per-user weights, which only the latest can answer.
	TruthsAt(window int, weights bool) (StreamWindowInfo, error)
}

// frontDoor is the handler set over one backend.
type frontDoor struct {
	b        StreamBackend
	maxBytes int64 // POST /v1/stream/claims body cap
}

// RegisterStream mounts the streaming routes over b on a shared mux, so
// one front door (a pptd Node) serves them next to /metrics and the
// cluster routes. maxRequestBytes caps the claims body (zero means
// DefaultMaxRequestBytes). Every route echoes the request-correlation
// header (see HeaderRequestID).
func RegisterStream(mux *http.ServeMux, b StreamBackend, maxRequestBytes int64) {
	d := frontDoor{b: b, maxBytes: effectiveMaxRequestBytes(maxRequestBytes)}
	mux.HandleFunc(PathStreamCampaign, route(http.MethodGet, d.handleCampaign))
	mux.HandleFunc(PathStreamClaims, route(http.MethodPost, d.handleClaims))
	mux.HandleFunc(PathStreamTruths, route(http.MethodGet, d.handleTruths))
	mux.HandleFunc(PathStreamWindow, route(http.MethodPost, d.handleWindow))
}

// StreamHandler returns an http.Handler serving only the streaming
// routes over b.
func StreamHandler(b StreamBackend, maxRequestBytes int64) http.Handler {
	mux := http.NewServeMux()
	RegisterStream(mux, b, maxRequestBytes)
	return mux
}

func (d frontDoor) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, d.b.Campaign())
}

// handleClaims is the one submit path: either wire decodes into a pooled
// frame (the binary frame natively, JSON straight into the frame's
// reusable claim slice), the backend ingests from it, and the buffers go
// back to the pool — zero per-claim heap allocations in steady state on
// the binary wire.
func (d frontDoor) handleClaims(w http.ResponseWriter, r *http.Request) {
	f := GetClaimFrame()
	defer PutClaimFrame(f)
	body := http.MaxBytesReader(w, r.Body, d.maxBytes)
	if isClaimFrameContentType(r.Header.Get("Content-Type")) {
		if err := DecodeClaimFrame(body, f); err != nil {
			writeDecodeError(w, "decode claim frame", err)
			return
		}
	} else if err := f.decodeJSON(body); err != nil {
		writeDecodeError(w, "decode submission", err)
		return
	}
	receipt, err := d.b.SubmitFrame(r.Context(), f)
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, receipt)
}

func (d frontDoor) handleTruths(w http.ResponseWriter, r *http.Request) {
	q, window := r.URL.Query(), 0
	if raw := q.Get("window"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("bad window parameter %q: want a non-negative integer", raw))
			return
		}
		window = n
	}
	weights, err := boolParam(w, q, "weights")
	if err != nil {
		return
	}
	info, err := d.b.TruthsAt(window, weights)
	if err != nil {
		// not_ready / unknown_window map to 404: a missing estimate is a
		// missing resource, while 409 stays reserved for real conflicts
		// (duplicate submission in a window, closing an empty window).
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (d frontDoor) handleWindow(w http.ResponseWriter, _ *http.Request) {
	info, err := d.b.CloseWindow()
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// boolParam reads an optional boolean query parameter (absent = false);
// a malformed one has been answered with the 400 envelope when it errs.
func boolParam(w http.ResponseWriter, q url.Values, name string) (bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("bad %s parameter %q: want a boolean", name, raw))
	}
	return v, err
}

// WriteJSON writes one JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding of our own wire structs cannot fail; ignore the writer
	// error as the response is already committed.
	_ = json.NewEncoder(w).Encode(v)
}

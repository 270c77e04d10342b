package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pptd/internal/crowd"
	"pptd/internal/streamstore"
)

// HTTP segment shipping: a Follower exposes a replica directory over
// two routes — a manifest of what it holds and a PUT endpoint for
// individual files — and an HTTPSink is the shipper-side client for
// them. Together they turn any reachable node into a warm standby:
// point the worker's shipper at the follower's URL, and recovering the
// standby is opening a streamstore on its directory.
const (
	// PathFollowerManifest serves the follower's current files and sizes
	// (GET), the remote form of Sink.Have.
	PathFollowerManifest = "/v1/follower/manifest"
	// PathFollowerFiles accepts one shipped file per request
	// (PUT /v1/follower/files/<name>), the remote form of Sink.Put. Only
	// names streamstore.ValidShippableName accepts are written.
	PathFollowerFiles = "/v1/follower/files/"
)

// defaultMaxShippedFileBytes caps one shipped file's body when
// FollowerOptions.MaxFileBytes is zero: far above any default-tuned
// state file (4 MiB journal segments; snapshots grow with the user
// population), small enough that an unauthenticated client cannot make
// the follower buffer unbounded memory per request.
const defaultMaxShippedFileBytes = 512 << 20

// FollowerOptions tunes a follower's ingress limits.
type FollowerOptions struct {
	// MaxFileBytes caps the size of one shipped file; a larger PUT is
	// refused with 413 before it is buffered. Zero means 512 MiB. Size
	// the cap to the source store's biggest artifact (usually the
	// snapshot).
	MaxFileBytes int64
	// AuthToken, when non-empty, requires every follower request to
	// carry "Authorization: Bearer <token>"; requests without it are
	// refused with 401. Empty leaves the routes open — acceptable only
	// on a trusted network, since anyone who can reach the port could
	// otherwise overwrite replica files. Pair with
	// HTTPSink.WithAuthToken on the shipping side.
	AuthToken string
}

// Follower receives shipped files into a local directory. Mount its
// Handler on any mux; restore by opening a streamstore on Dir.
type Follower struct {
	sink     *DirSink
	maxBytes int64
	token    string
}

// NewFollower returns a follower writing into dir (created if needed)
// with default options: 512 MiB per-file cap, no authentication.
func NewFollower(dir string) (*Follower, error) {
	return NewFollowerWith(dir, FollowerOptions{})
}

// NewFollowerWith returns a follower writing into dir with the given
// ingress limits.
func NewFollowerWith(dir string, opts FollowerOptions) (*Follower, error) {
	if opts.MaxFileBytes < 0 {
		return nil, fmt.Errorf("%w: MaxFileBytes = %d", ErrBadConfig, opts.MaxFileBytes)
	}
	maxBytes := opts.MaxFileBytes
	if maxBytes == 0 {
		maxBytes = defaultMaxShippedFileBytes
	}
	sink, err := NewDirSink(dir)
	if err != nil {
		return nil, err
	}
	return &Follower{sink: sink, maxBytes: maxBytes, token: opts.AuthToken}, nil
}

// authorized enforces the optional shared bearer token on one follower
// request, answering 401 itself when the check fails.
func (f *Follower) authorized(w http.ResponseWriter, r *http.Request) bool {
	if f.token == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+f.token)) == 1 {
		return true
	}
	crowd.WriteError(w, http.StatusUnauthorized, crowd.CodeUnauthorized, "missing or wrong follower auth token")
	return false
}

// Dir returns the replica directory.
func (f *Follower) Dir() string { return f.sink.Dir() }

// Register mounts the follower routes on mux.
func (f *Follower) Register(mux *http.ServeMux) {
	mux.HandleFunc(PathFollowerManifest, crowd.EchoRequestID(f.handleManifest))
	mux.HandleFunc(PathFollowerFiles, crowd.EchoRequestID(f.handleFile))
}

// Handler returns an http.Handler serving just the follower routes.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	f.Register(mux)
	return mux
}

func (f *Follower) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		crowd.WriteError(w, http.StatusMethodNotAllowed, crowd.CodeMethodNotAllowed, "GET only")
		return
	}
	if !f.authorized(w, r) {
		return
	}
	have, err := f.sink.Have()
	if err != nil {
		crowd.WriteAPIError(w, err)
		return
	}
	crowd.WriteJSON(w, http.StatusOK, have)
}

func (f *Follower) handleFile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		crowd.WriteError(w, http.StatusMethodNotAllowed, crowd.CodeMethodNotAllowed, "PUT only")
		return
	}
	if !f.authorized(w, r) {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, PathFollowerFiles)
	if !streamstore.ValidShippableName(name) {
		crowd.WriteError(w, http.StatusBadRequest, crowd.CodeBadRequest,
			fmt.Sprintf("%q is not a shippable file name", name))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			crowd.WriteError(w, http.StatusRequestEntityTooLarge, crowd.CodePayloadTooLarge,
				fmt.Sprintf("%s exceeds the follower's %d-byte file cap", name, tooBig.Limit))
			return
		}
		crowd.WriteError(w, http.StatusBadRequest, crowd.CodeBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	if err := f.sink.Put(name, data); err != nil {
		crowd.WriteAPIError(w, err)
		return
	}
	crowd.WriteJSON(w, http.StatusOK, map[string]any{"name": name, "size": len(data)})
}

// HTTPSink ships to a remote Follower.
type HTTPSink struct {
	baseURL string
	httpc   *http.Client
	token   string
}

// NewHTTPSink returns a sink shipping to the follower at baseURL.
// httpc may be nil (a default client is used).
func NewHTTPSink(baseURL string, httpc *http.Client) (*HTTPSink, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("cluster: empty follower URL")
	}
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &HTTPSink{baseURL: baseURL, httpc: httpc}, nil
}

// WithAuthToken returns the sink sending "Authorization: Bearer token"
// on every request — the client half of FollowerOptions.AuthToken. An
// empty token sends no header.
func (h *HTTPSink) WithAuthToken(token string) *HTTPSink {
	h.token = token
	return h
}

// authorize attaches the shared bearer token, when configured.
func (h *HTTPSink) authorize(req *http.Request) {
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
}

// Have implements Sink via the follower's manifest.
func (h *HTTPSink) Have() (map[string]int64, error) {
	req, err := http.NewRequest(http.MethodGet, h.baseURL+PathFollowerManifest, nil)
	if err != nil {
		return nil, err
	}
	h.authorize(req)
	resp, err := h.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: follower manifest: status %d", resp.StatusCode)
	}
	var have map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&have); err != nil {
		return nil, fmt.Errorf("cluster: decode follower manifest: %w", err)
	}
	return have, nil
}

// Put implements Sink via the follower's file endpoint.
func (h *HTTPSink) Put(name string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, h.baseURL+PathFollowerFiles+name, bytes.NewReader(data))
	if err != nil {
		return err
	}
	h.authorize(req)
	resp, err := h.httpc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: follower rejected %s: status %d: %s", name, resp.StatusCode, body)
	}
	return nil
}

package crowd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"pptd/internal/streamstore"
	"pptd/internal/truth"
)

var (
	// ErrBadConfig reports an invalid server configuration.
	ErrBadConfig = errors.New("crowd: invalid server config")
	// ErrDuplicateClient reports a second submission from the same ID.
	ErrDuplicateClient = errors.New("crowd: duplicate client submission")
	// ErrCampaignClosed reports a submission after aggregation.
	ErrCampaignClosed = errors.New("crowd: campaign already aggregated")
	// ErrNotReady reports a result request before aggregation.
	ErrNotReady = errors.New("crowd: result not ready")
	// ErrBadSubmission reports a malformed submission.
	ErrBadSubmission = errors.New("crowd: bad submission")
)

// ServerConfig parameterizes a campaign server.
type ServerConfig struct {
	// Name labels the campaign.
	Name string
	// NumObjects is the number of micro-tasks.
	NumObjects int
	// Lambda2 is the noise-variance rate released to users.
	Lambda2 float64
	// ExpectedUsers triggers aggregation when reached. Zero means
	// aggregation only happens on explicit POST /v1/aggregate.
	ExpectedUsers int
	// Method is the truth-discovery algorithm run at aggregation time.
	Method truth.Method
	// Persistence, when set, makes the campaign durable: every accepted
	// submission is fsync'd to the store's batch WAL before its receipt
	// is returned, the aggregated result is persisted before it is first
	// published, and NewServer recovers both — so a restarted server
	// still enforces one-submission-per-client and serves the same
	// result. The caller opens the store and keeps ownership (a node
	// shares one store between the batch and streaming campaigns).
	Persistence *streamstore.Store
	// MaxRequestBytes caps the POST /v1/submissions request body;
	// oversized bodies get the 413 payload_too_large envelope before
	// being buffered. Zero means DefaultMaxRequestBytes; negative is a
	// config error.
	MaxRequestBytes int64
}

func (c ServerConfig) validate() error {
	switch {
	case c.NumObjects <= 0:
		return fmt.Errorf("%w: NumObjects = %d", ErrBadConfig, c.NumObjects)
	case c.Lambda2 <= 0 || math.IsNaN(c.Lambda2) || math.IsInf(c.Lambda2, 0):
		return fmt.Errorf("%w: Lambda2 = %v", ErrBadConfig, c.Lambda2)
	case c.ExpectedUsers < 0:
		return fmt.Errorf("%w: ExpectedUsers = %d", ErrBadConfig, c.ExpectedUsers)
	case c.Method == nil:
		return fmt.Errorf("%w: nil method", ErrBadConfig)
	case c.MaxRequestBytes < 0:
		return fmt.Errorf("%w: MaxRequestBytes = %d", ErrBadConfig, c.MaxRequestBytes)
	}
	return nil
}

// Server is the untrusted aggregation server. It only ever stores
// perturbed claims; the privacy of each user rests on the client-side
// perturbation, not on trusting this process. Safe for concurrent use.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	order  []string           // client IDs in submission order
	claims map[string][]Claim // by client ID
	result *ResultInfo        // nil until aggregated
}

// NewServer returns a campaign server for the given config. With
// Persistence set it first recovers the durable campaign state: every
// WAL'd submission is re-admitted (in acknowledgement order, so the
// duplicate guard and any expected-users trigger see what the pre-crash
// server saw) and a persisted aggregated result closes the campaign
// again. Recovery never re-aggregates — a crash between the last
// submission and the aggregation leaves the campaign open, exactly as
// acknowledged.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		claims: make(map[string][]Claim),
	}
	if cfg.Persistence != nil {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recover replays the batch WAL and reloads the persisted result into a
// fresh server. Called once from NewServer, before any request.
func (s *Server) recover() error {
	subs, err := s.cfg.Persistence.LoadBatchSubmissions()
	if err != nil {
		return fmt.Errorf("crowd: recover batch submissions: %w", err)
	}
	for _, sub := range subs {
		if sub.ClientID == "" {
			continue
		}
		if _, dup := s.claims[sub.ClientID]; dup {
			continue // a crash between WAL append and ack can duplicate
		}
		s.claims[sub.ClientID] = sub.Claims
		s.order = append(s.order, sub.ClientID)
	}
	body, err := s.cfg.Persistence.LoadBatchResult()
	if err != nil {
		return fmt.Errorf("crowd: recover batch result: %w", err)
	}
	if body != nil {
		res := new(ResultInfo)
		if err := json.Unmarshal(body, res); err != nil {
			return fmt.Errorf("crowd: decode recovered batch result: %w", err)
		}
		s.result = res
	}
	return nil
}

// Handler returns the HTTP handler serving the campaign API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Register mounts the campaign routes on a shared mux, so one front door
// (a pptd Node) can serve the batch and streaming APIs together.
// Every route echoes the request-correlation header (see HeaderRequestID).
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc(PathCampaign, route(http.MethodGet, s.handleCampaign))
	mux.HandleFunc(PathSubmissions, route(http.MethodPost, s.handleSubmissions))
	mux.HandleFunc(PathResult, route(http.MethodGet, s.handleResult))
	mux.HandleFunc(PathAggregate, route(http.MethodPost, s.handleAggregate))
}

// Campaign returns a snapshot of the campaign state.
func (s *Server) Campaign() CampaignInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CampaignInfo{
		Name:           s.cfg.Name,
		NumObjects:     s.cfg.NumObjects,
		Lambda2:        s.cfg.Lambda2,
		ExpectedUsers:  s.cfg.ExpectedUsers,
		SubmittedUsers: len(s.order),
		Aggregated:     s.result != nil,
	}
}

// Submit stores one client's perturbed claims and aggregates if the
// expected user count is reached. It validates object indices, duplicate
// objects within the submission, and one-submission-per-client.
func (s *Server) Submit(sub Submission) (SubmissionReceipt, error) {
	if sub.ClientID == "" {
		return SubmissionReceipt{}, fmt.Errorf("%w: empty client id", ErrBadSubmission)
	}
	if len(sub.Claims) == 0 {
		return SubmissionReceipt{}, fmt.Errorf("%w: no claims", ErrBadSubmission)
	}
	seen := make(map[int]struct{}, len(sub.Claims))
	for _, c := range sub.Claims {
		if c.Object < 0 || c.Object >= s.cfg.NumObjects {
			return SubmissionReceipt{}, fmt.Errorf("%w: object %d of %d", ErrBadSubmission, c.Object, s.cfg.NumObjects)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return SubmissionReceipt{}, fmt.Errorf("%w: non-finite value for object %d", ErrBadSubmission, c.Object)
		}
		if _, dup := seen[c.Object]; dup {
			return SubmissionReceipt{}, fmt.Errorf("%w: duplicate object %d", ErrBadSubmission, c.Object)
		}
		seen[c.Object] = struct{}{}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.result != nil {
		return SubmissionReceipt{}, ErrCampaignClosed
	}
	if _, dup := s.claims[sub.ClientID]; dup {
		return SubmissionReceipt{}, fmt.Errorf("%w: %q", ErrDuplicateClient, sub.ClientID)
	}
	if s.cfg.Persistence != nil {
		// Durable before acknowledged: the WAL append fsyncs under s.mu,
		// so WAL order is acknowledgement order and a crash at any point
		// loses only submissions that were never acked.
		rec := streamstore.BatchSubmission{ClientID: sub.ClientID, Claims: sub.Claims}
		if err := s.cfg.Persistence.AppendBatchSubmission(rec); err != nil {
			return SubmissionReceipt{}, fmt.Errorf("crowd: persist submission: %w", err)
		}
	}
	stored := make([]Claim, len(sub.Claims))
	copy(stored, sub.Claims)
	s.claims[sub.ClientID] = stored
	s.order = append(s.order, sub.ClientID)

	receipt := SubmissionReceipt{
		Accepted:       len(stored),
		SubmittedUsers: len(s.order),
	}
	if s.cfg.ExpectedUsers > 0 && len(s.order) >= s.cfg.ExpectedUsers {
		if err := s.aggregateLocked(); err != nil {
			return SubmissionReceipt{}, err
		}
		receipt.Aggregated = true
	}
	return receipt, nil
}

// Aggregate runs truth discovery over everything submitted so far. It is
// idempotent: once aggregated, later calls return the cached result.
func (s *Server) Aggregate() (*ResultInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.result != nil {
		return s.result, nil
	}
	if err := s.aggregateLocked(); err != nil {
		return nil, err
	}
	return s.result, nil
}

// Result returns the aggregated result, or ErrNotReady.
func (s *Server) Result() (*ResultInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.result == nil {
		return nil, ErrNotReady
	}
	return s.result, nil
}

// aggregateLocked builds the dataset and runs the configured method.
// Callers must hold s.mu.
func (s *Server) aggregateLocked() error {
	if len(s.order) == 0 {
		return fmt.Errorf("%w: no submissions", ErrNotReady)
	}
	b := truth.NewBuilder(len(s.order), s.cfg.NumObjects)
	for idx, id := range s.order {
		for _, c := range s.claims[id] {
			b.Add(idx, c.Object, c.Value)
		}
	}
	ds, err := b.Build()
	if err != nil {
		return fmt.Errorf("crowd: build dataset: %w", err)
	}
	res, err := s.cfg.Method.Run(ds)
	if err != nil {
		return fmt.Errorf("crowd: aggregate: %w", err)
	}
	weights := make(map[string]float64, len(s.order))
	for idx, id := range s.order {
		weights[id] = res.Weights[idx]
	}
	result := &ResultInfo{
		Truths:     res.Truths,
		Weights:    weights,
		Method:     s.cfg.Method.Name(),
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}
	if s.cfg.Persistence != nil {
		// Persist before publish: a result any client ever saw must
		// survive a crash. On failure the campaign stays unaggregated —
		// the submissions are all in the WAL, so POST /v1/aggregate
		// simply retries.
		body, err := json.Marshal(result)
		if err != nil {
			return fmt.Errorf("crowd: encode batch result: %w", err)
		}
		if err := s.cfg.Persistence.SaveBatchResult(body); err != nil {
			return fmt.Errorf("crowd: persist batch result: %w", err)
		}
	}
	s.result = result
	return nil
}

func (s *Server) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Campaign())
}

func (s *Server) handleSubmissions(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, effectiveMaxRequestBytes(s.cfg.MaxRequestBytes))
	var sub Submission
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		writeDecodeError(w, "decode submission", err)
		return
	}
	receipt, err := s.Submit(sub)
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, receipt)
}

func (s *Server) handleResult(w http.ResponseWriter, _ *http.Request) {
	res, err := s.Result()
	if err != nil {
		// ErrNotReady maps to 404 not_ready: a pending result is a missing
		// resource, not a conflict with the request (cf. the stream
		// server's truths endpoint).
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleAggregate(w http.ResponseWriter, _ *http.Request) {
	res, err := s.Aggregate()
	if errors.Is(err, ErrNotReady) {
		// Aggregating an empty campaign stays 409: here the request itself
		// conflicts with campaign state, unlike a pending GET /v1/result.
		WriteError(w, http.StatusConflict, CodeEmptyCampaign, err.Error())
		return
	}
	if err != nil {
		WriteAPIError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// WriteJSON writes one JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding of our own wire structs cannot fail; ignore the writer
	// error as the response is already committed.
	_ = json.NewEncoder(w).Encode(v)
}

// Package crowd implements the crowd sensing system of the paper's
// Section 2 as a real client/server application: an untrusted aggregation
// server that publishes micro-tasks and the perturbation hyper-parameter
// lambda2, and user clients that perturb their readings locally (the only
// place original data ever exists) before submitting them over HTTP.
// This realizes Algorithm 2 end to end:
//
//  1. the server publishes the campaign (micro-tasks + lambda2),
//  2. each user samples delta_s^2 ~ Exp(lambda2) on-device,
//  3. each user perturbs readings with N(0, delta_s^2) noise,
//  4. users submit only perturbed claims,
//  5. the server runs weighted truth discovery when the window closes.
//
// A one-shot campaign is one window of the stream: submit, then close.
//
// # Streaming campaigns
//
// The package serves campaigns through internal/stream (see
// StreamServer):
//
//   - GET  /v1/stream/campaign publishes the stream metadata (objects,
//     lambda2, shard count, per-window epsilon/delta and budget);
//   - POST /v1/stream/claims ingests one client's batch of perturbed
//     claims into the open window (400 on malformed claims, 409 on a
//     second submission into the same open window when accounting is
//     enabled, 429 once the client's cumulative privacy budget is
//     exhausted);
//   - POST /v1/stream/window closes the open window, re-estimates truths
//     and weights incrementally from the decayed sufficient statistics —
//     using the engine's configured estimator (CRH, GTM, or CATD; the
//     campaign and every window result name it) — and returns
//     the estimate (409 before any claim ever arrived);
//   - GET  /v1/stream/truths serves the latest closed window's estimate
//     as a live snapshot (404 until the first window ever closes — "not
//     ready" is a missing resource; 409 is reserved for real conflicts
//     like a duplicate same-window submission or closing an empty
//     window). With ?window=N it serves one specific
//     recent window from the engine's bounded result history
//     (stream.Config.HistoryWindows); a window never closed or already
//     evicted answers 404 with code "unknown_window". With persistence
//     configured both reads survive restarts: a recovered server serves
//     the persisted results immediately rather than 404 until the next
//     close.
//
// Observability counters are on the node's /metrics, not on this API.
//
// Windows close on explicit POST /v1/stream/window, or automatically on
// a ticker when StreamServerConfig.WindowInterval is set; both paths
// serialize with each other and with persistence snapshots.
//
// # Error envelope
//
// Every non-2xx response carries the same versioned JSON envelope
// (ErrorBody): {v, code, message, retry_after_windows?}. The code (see
// the Code* constants in errors.go) is the stable contract — HTTP statuses are derived from it
// in one place (errorStatus) — and Client decodes it back into the
// matching typed sentinel, so errors.Is(err, stream.ErrBudgetExhausted)
// and errors.As(err, &httpErr) both work on one returned error.
// docs/API.md at the repository root tabulates every code.
//
// The server meters each client's cumulative (epsilon, delta) spending.
// The accounting unit is the release unit: each window's epsilon pays
// for exactly one submission per client, with at most one claim per
// object, and a second submission into the same open window is rejected
// (409) instead of being silently averaged in — otherwise k same-window
// submissions would cut the effective noise by about sqrt(k) while
// paying a single epsilon. Both epsilon and delta compose linearly
// across the windows a client is charged for; the per-window privacy
// report carries the basic-composition totals
// (MaxCumulative, CumulativeDelta). User.ParticipateStream honors the
// one-submission-per-window contract on-device, skipping (ErrSameWindow)
// before a second noisy release of the same window is even generated.
//
// # Request correlation
//
// Every response — success or error envelope — carries an X-Request-ID
// header: the client's, when the request supplied a valid one, or a
// freshly generated ID otherwise (see HeaderRequestID). The Client
// stamps one on every request it issues and surfaces the server's echo
// on failures via HTTPError.RequestID, so a failing call can be joined
// against the node's structured request logs. Non-2xx responses
// additionally carry the envelope code in the X-Error-Code header,
// which the node's metrics middleware turns into per-code error
// counters without any handler plumbing.
//
// # Privacy reports on the wire
//
// Privacy reports ship aggregates only (MaxCumulative, MaxWindows,
// CumulativeDelta, TrackedUsers, ExhaustedUsers): a per-user epsilon map
// would be the complete historical client-ID roster — O(users) to
// serialize on every window close and truths poll, and participation
// metadata any poller could harvest.
//
// # Durability
//
// With StreamServerConfig.Persistence set (an internal/streamstore
// store), the accounting ledger outlives the process: every accepted
// charge is appended to an fsync'd journal before the submission receipt
// is returned — concurrent submissions share group-commit batches, so
// the durable path scales with load instead of serializing on the disk —
// and NewStreamServer recovers snapshot-plus-journal on startup. A crash
// never loses an acknowledged epsilon charge, and a user who exhausted
// their budget stays exhausted across restarts. With
// stream.Config.ClaimWAL the journal record additionally carries the
// submission's claims, so the sufficient statistics are exactly as
// durable as the budget and a kill-and-recover server matches an
// uninterrupted one; without it a crash still loses claims accepted
// after the last snapshot (privacy-conservative: the charge stands, the
// data is gone).
//
// Each window close persists its published result and snapshots the
// engine per the store's cadence (streamstore.Options.SnapshotEvery,
// SnapshotBytes); a graceful Close always writes a final snapshot. After
// a restart GET /v1/stream/truths serves the persisted last result
// immediately — 404 only before the first window ever closed. See
// docs/DURABILITY.md at the repository root for the full crash-recovery
// contract.
//
// A durable stream server also wires the store in as the engine's user
// spill store (stream.Config.UserStore), so a residency-capped engine
// (stream.Config.MaxResidentUsers) evicts idle users to disk at window
// close and re-admits them transparently on their next claim — a
// budget-exhausted user stays rejected (429) across eviction,
// re-admission, and restart alike. The pptd_stream_resident_users and
// pptd_store_spilled_users gauges on /metrics report the live split.
package crowd

import (
	"fmt"

	"pptd/internal/obs"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// Wire paths served by the campaign server.
const (
	// PathStreamCampaign serves streaming campaign metadata (GET).
	PathStreamCampaign = "/v1/stream/campaign"
	// PathStreamClaims accepts batched perturbed claims for the open
	// window (POST).
	PathStreamClaims = "/v1/stream/claims"
	// PathStreamTruths serves the latest closed window's estimate (GET),
	// 404 until the first window ever closes (a persistent server serves
	// the recovered result across restarts).
	PathStreamTruths = "/v1/stream/truths"
	// PathStreamWindow closes the open window and returns its estimate
	// (POST).
	PathStreamWindow = "/v1/stream/window"

	// PathClusterClose is the worker-side cluster RPC that quiesces the
	// open window and exports its raw sufficient statistics to the
	// coordinator without estimating (POST; see
	// StreamServer.RegisterCluster). Mounted only on cluster workers.
	PathClusterClose = "/v1/cluster/close"
	// PathClusterCommit is the worker-side cluster RPC that commits the
	// coordinator's merged per-user carry weights back onto the worker after a cluster-wide window close (POST).
	PathClusterCommit = "/v1/cluster/commit"
	// PathClusterStatus serves the worker's cluster close-protocol
	// position (GET): closed-window count, the window of its last close
	// export, and the last committed window. A booting coordinator reads
	// it to detect a close round that was interrupted mid-commit and must
	// be re-driven before serving.
	PathClusterStatus = "/v1/cluster/status"

	// PathMetrics is where a pptd Node exposes the Prometheus text
	// rendition of every registered metric (GET). The crowd servers do
	// not mount it themselves — the Node does, over the same registry the
	// engine and store publish into — but the path constant lives here
	// with the rest of the wire contract. It sits outside the /v1 prefix:
	// scrapers expect the conventional path, and the exposition format is
	// versioned by its content type, not by the URL.
	PathMetrics = "/metrics"
)

// Request-correlation headers, shared with internal/obs. Clients may
// send an X-Request-ID; the server echoes it (generating one when the
// request carried none or an invalid one) on every response, including
// error envelopes, so a failing request can be joined against the
// node's structured logs. X-Error-Code carries the envelope's stable
// error code on every non-2xx response, readable without parsing the
// body.
const (
	HeaderRequestID = obs.HeaderRequestID
	HeaderErrorCode = obs.HeaderErrorCode
)

// Claim is a single (object, value) report inside a submission. Values
// must already be perturbed by the client. It is the stream engine's
// claim type, so a decoded batch reaches the engine without conversion.
type Claim = stream.Claim

// Submission is one client's claim batch, the JSON body of POST
// /v1/stream/claims.
type Submission struct {
	// ClientID identifies the submitting device; one submission per ID
	// per window.
	ClientID string `json:"clientId"`
	// Claims holds the perturbed readings.
	Claims []Claim `json:"claims"`
}

// StreamCampaignInfo is the public description of a streaming campaign
// (GET /v1/stream/campaign).
type StreamCampaignInfo struct {
	// Name labels the campaign.
	Name string `json:"name"`
	// NumObjects is the number of micro-tasks (objects) in the stream.
	NumObjects int `json:"numObjects"`
	// Lambda2 is the server-released perturbation rate users sample
	// their noise variances with (0 if the campaign does not publish one).
	Lambda2 float64 `json:"lambda2"`
	// Estimator names the truth-discovery estimator the stream runs
	// ("crh", "gtm", or "catd" — see stream.EstimatorNames).
	Estimator string `json:"estimator"`
	// Shards is the engine's ingestion shard count.
	Shards int `json:"shards"`
	// Window is the number of closed windows so far.
	Window int `json:"window"`
	// TotalClaims counts every claim accepted over the stream.
	TotalClaims int64 `json:"totalClaims"`
	// EpsilonPerWindow and Delta describe the per-window privacy charge;
	// both are 0 when accounting is disabled. EpsilonBudget is the
	// enforced cumulative cap (0 = tracking only).
	EpsilonPerWindow float64 `json:"epsilonPerWindow"`
	Delta            float64 `json:"delta"`
	EpsilonBudget    float64 `json:"epsilonBudget"`
}

// StreamReceipt is the response to a successful POST /v1/stream/claims.
type StreamReceipt struct {
	// Accepted echoes the number of ingested claims.
	Accepted int `json:"accepted"`
	// Window is the 1-based index of the open window the batch joined.
	Window int `json:"window"`
	// TotalClaims counts every claim accepted over the stream so far.
	TotalClaims int64 `json:"totalClaims"`
}

// StreamWindowInfo is one closed window's estimate, served by
// GET /v1/stream/truths and POST /v1/stream/window.
type StreamWindowInfo struct {
	// Window is the 1-based index of the closed window.
	Window int `json:"window"`
	// Truths holds the estimated truth per object; entries whose Covered
	// flag is false carry 0 and mean "no data", since JSON has no NaN.
	Truths []float64 `json:"truths"`
	// Covered marks objects with at least one live statistic.
	Covered []bool `json:"covered"`
	// Weights holds the estimated weight per active user, keyed by
	// client ID. The close reply carries it; GET /v1/stream/truths only on
	// ?weights=1 and only for the latest window — it is O(users) per poll
	// and a participation side channel, so readers get aggregates instead:
	// EffectiveUsers, (Σw)²/Σw² over those weights, and MaxWeightShare,
	// max w/Σw.
	Weights        map[string]float64 `json:"weights,omitempty"`
	EffectiveUsers float64            `json:"effectiveUsers"`
	MaxWeightShare float64            `json:"maxWeightShare"`
	// Estimator names the estimator that produced this window's estimate
	// ("" on results persisted before estimators were recorded = CRH).
	Estimator string `json:"estimator,omitempty"`
	// Iterations and Converged describe the window's estimation loop.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// ActiveUsers is the number of users with live statistics;
	// WindowClaims and TotalClaims count ingested claims.
	ActiveUsers  int   `json:"activeUsers"`
	WindowClaims int64 `json:"windowClaims"`
	TotalClaims  int64 `json:"totalClaims"`
	// Privacy summarizes cumulative budget spending; omitted when
	// accounting is disabled. It carries aggregates only.
	Privacy *stream.PrivacyReport `json:"privacy,omitempty"`
}

// StreamStatsInfo is what StreamServer.Stats returns: the engine's
// headline counters plus, on a durable server, the store's journal and
// group-commit observability (batch-size and flush-latency histograms:
// how many acks each fsync carried, and what each one cost).
type StreamStatsInfo struct {
	// Name labels the campaign.
	Name string `json:"name"`
	// Estimator names the engine's configured truth-discovery estimator.
	Estimator string `json:"estimator"`
	// Window is the number of closed windows; TotalClaims counts every
	// claim accepted over the stream.
	Window      int   `json:"window"`
	TotalClaims int64 `json:"totalClaims"`
	// HistoryWindows is the capacity of the retained result ring backing
	// GET /v1/stream/truths?window=N; HistoryOldest is the oldest window
	// currently answerable (0 when none is retained).
	HistoryWindows int `json:"historyWindows"`
	HistoryOldest  int `json:"historyOldest"`
	// ResidentUsers is the number of users the engine currently holds in
	// memory; MaxResidentUsers is the configured residency cap (0 =
	// unbounded). Evicted users are not forgotten, just spilled to the
	// store.
	ResidentUsers    int `json:"residentUsers"`
	MaxResidentUsers int `json:"maxResidentUsers"`
	// Durable reports whether the server persists through a stream store;
	// Store carries the store's counters when it does.
	Durable bool                    `json:"durable"`
	Store   *streamstore.StoreStats `json:"store,omitempty"`
}

// ErrorEnvelopeVersion is the current version of the JSON error
// envelope. It only moves when a field changes meaning; adding optional
// fields does not bump it.
const ErrorEnvelopeVersion = 1

// ErrorBody is the versioned JSON error envelope every non-2xx response
// carries. Clients branch on Code (stable, machine-readable — see the
// Code* constants) rather than on Message or on the HTTP status.
type ErrorBody struct {
	// V is the envelope version (ErrorEnvelopeVersion).
	V int `json:"v"`
	// Code is the stable machine-readable error code.
	Code string `json:"code"`
	// Message is the human-readable error description.
	Message string `json:"message"`
	// RetryAfterWindows, when positive, hints how many window closes the
	// client should wait before retrying (1 on duplicate_window: the
	// charge blocking the user expires when the open window closes).
	RetryAfterWindows int `json:"retry_after_windows,omitempty"`
}

// HTTPError reports a non-2xx response from the campaign server. The
// Client additionally unwraps the envelope's code into the matching
// typed sentinel (ErrNotReady, stream.ErrDuplicateWindow, ...), so
// errors.Is against package sentinels and errors.As against *HTTPError
// both work on the same returned error.
type HTTPError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the envelope's machine-readable error code ("" from a
	// pre-envelope server).
	Code string
	// Message is the server-provided error string, if any.
	Message string
	// RetryAfterWindows is the envelope's retry hint (0 = none).
	RetryAfterWindows int
	// RequestID is the correlation ID the server echoed on the failed
	// response (X-Request-ID) — quote it when reporting the failure, it
	// joins against the node's structured request logs. Empty from a
	// server predating the echo contract.
	RequestID string
}

// Error implements error.
func (e *HTTPError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("crowd: server returned status %d", e.StatusCode)
	}
	return fmt.Sprintf("crowd: server returned status %d: %s", e.StatusCode, e.Message)
}

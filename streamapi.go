package pptd

import (
	"pptd/internal/crowd"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// Streaming estimator names, accepted in StreamConfig.Estimator and
// recorded in snapshots and wire metadata. Each is the incremental
// counterpart of the batch Method of the same name, matching it within
// 1e-9 on a closed undecayed window.
const (
	// StreamEstimatorCRH runs incremental CRH (the default).
	StreamEstimatorCRH = stream.EstimatorCRH
	// StreamEstimatorGTM runs incremental GTM; its carry weights are the
	// learned per-user precisions 1/σ² (persisted in snapshots).
	StreamEstimatorGTM = stream.EstimatorGTM
	// StreamEstimatorCATD runs incremental CATD.
	StreamEstimatorCATD = stream.EstimatorCATD
)

// StreamConfig parameterizes a node's streaming engine
// (WithStreamConfig): claims ingest concurrently into hash-partitioned
// shards, fold into exponentially-decayed sufficient statistics per
// (object, user), and each window close re-estimates truths and weights
// incrementally with the configured estimator (CRH, GTM, or CATD),
// warm-started from the previous window and with cumulative
// (epsilon, delta) accounting.
type StreamConfig = stream.Config

// StreamClaim is one perturbed (object, value) report in a stream.
type StreamClaim = stream.Claim

// StreamWindowResult is the estimate published when a window closes.
type StreamWindowResult = stream.WindowResult

// StreamPrivacyReport summarizes cumulative per-user privacy spending at
// a window boundary.
type StreamPrivacyReport = stream.PrivacyReport

// StreamHistoryWindows is the published-result ring capacity of a
// stream engine, a coordinator and a node's persisted result history:
// the last 8 closed windows stay answerable by GET
// /v1/stream/truths?window=N.
const StreamHistoryWindows = stream.HistoryWindows

// Streaming sentinel errors, matchable with errors.Is. Client decodes
// wire envelopes into the same sentinels.
var (
	// ErrBudgetExhausted reports a submission from a user whose
	// cumulative privacy budget would be exceeded (envelope code
	// "budget_exhausted", HTTP 429).
	ErrBudgetExhausted = stream.ErrBudgetExhausted
	// ErrDuplicateWindow reports a second submission from the same user
	// into one open window while privacy accounting is enabled: the
	// per-window epsilon pays for exactly one perturbed release (envelope
	// code "duplicate_window", HTTP 409, retry_after_windows = 1).
	ErrDuplicateWindow = stream.ErrDuplicateWindow
	// ErrEmptyWindow reports a window close refused because no
	// sufficient statistic is live: no claim ever arrived, or every one
	// has decayed away (envelope code "empty_window", HTTP 409). It does
	// not mean "no claims this window": at Decay 1, once one claim
	// arrived, every close succeeds (the WithWindowInterval ticker skips
	// a window with no new claim instead of closing it).
	ErrEmptyWindow = stream.ErrEmptyWindow
	// ErrSameWindow reports a CampaignUser.ParticipateStream call before
	// the server's window advanced past the user's last submission; the
	// helper refuses before perturbing so no second noisy release of the
	// window leaves the device.
	ErrSameWindow = crowd.ErrSameWindow
	// ErrLedger reports a submission rejected because its privacy ledger
	// record could not be made durable; the in-memory charge was rolled
	// back.
	ErrLedger = stream.ErrLedger
	// ErrBadState reports an engine state that cannot be restored.
	ErrBadState = stream.ErrBadState
	// ErrStreamEstimatorMismatch reports a restore of engine state
	// written by a different estimator than the engine is configured
	// for: carry weights (CRH's log-ratios, GTM's learned precisions)
	// are not interchangeable, so recovery refuses instead of silently
	// reinterpreting the snapshot. Restore with the matching estimator
	// (or discard the state directory) to proceed.
	ErrStreamEstimatorMismatch = stream.ErrEstimatorMismatch
	// ErrCorruptSnapshot reports a persisted snapshot that fails its
	// integrity check (on-disk damage, not a crash artifact).
	ErrCorruptSnapshot = streamstore.ErrCorruptSnapshot
	// ErrCorruptResult reports a persisted window result that fails its
	// integrity check; deleting result.json clears it at the cost of
	// serving no estimate until the next window close.
	ErrCorruptResult = streamstore.ErrCorruptResult
	// ErrLegacyJournal reports a state directory holding a journal this
	// version does not read — a pre-segmentation ledger.journal, the
	// retired batch campaign's batch.wal or batch-result.json, or a
	// journal segment or users.spill still in JSON lines: ignoring or
	// repairing the file would silently hand every user their spent
	// epsilon back, so the store refuses.
	ErrLegacyJournal = streamstore.ErrLegacyJournal
	// ErrLegacySnapshot reports a state directory whose snapshot.json or
	// cluster-close.json is still the JSON form earlier versions wrote,
	// which this version does not read: booting over it as if the
	// directory were empty would hand every user it records their spent
	// epsilon back, so the store refuses and names the file.
	ErrLegacySnapshot = streamstore.ErrLegacySnapshot
)

// StreamChargeRecord is one privacy-ledger entry: a (user, window,
// epsilon) charge journaled before the submission is acknowledged.
type StreamChargeRecord = stream.ChargeRecord

// StreamLedger is the durable privacy-ledger interface the engine
// appends to before acknowledging a charged submission.
type StreamLedger = stream.Ledger

// StreamStore is a durable node's state directory, which the node opens
// with WithPersistence, owns, and returns from Node.Store: an fsync'd
// append-only journal of rolling segment files (privacy charges, and
// claims when the claim WAL is on) with group-committed concurrent
// appends, plus atomically-replaced, checksummed engine snapshots and
// the last published window results. Snapshots compact the journal by
// deleting fully-covered sealed segments — O(segments), no rewrite. A
// node restarted on the directory recovers from everything persisted.
// A pre-segmentation state
// directory (a single ledger.journal), the retired batch campaign's
// batch.wal or batch-result.json, or a JSON-era journal segment or
// users.spill is refused with ErrLegacyJournal, a JSON-era snapshot
// with ErrLegacySnapshot.
type StreamStore = streamstore.Store

// StreamStoreStats is a point-in-time snapshot of a store's
// observability counters: journal appends/syncs/bytes, snapshot and
// result counts, and the group-commit batch-size and flush-latency
// histograms (StreamCampaignServer.Stats reports it on a durable node).
type StreamStoreStats = streamstore.StoreStats

// StreamCampaignServer serves a streaming sensing campaign over HTTP:
// batched perturbed claims in, live per-window truth snapshots out, with
// per-user cumulative privacy budgets tracked and enforced. A Node hosts
// one with WithStreamConfig (Node.Stream).
type StreamCampaignServer = crowd.StreamServer

// StreamStatsInfo is what StreamCampaignServer.Stats returns: engine
// totals, residency, and the store's StreamStoreStats on a durable
// node.
type StreamStatsInfo = crowd.StreamStatsInfo

// StreamCampaignInfo describes a streaming campaign.
type StreamCampaignInfo = crowd.StreamCampaignInfo

// StreamReceipt acknowledges one ingested claim batch.
type StreamReceipt = crowd.StreamReceipt

// StreamWindowInfo is one closed window's estimate on the wire.
type StreamWindowInfo = crowd.StreamWindowInfo

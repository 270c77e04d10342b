// Package pptd is a Go implementation of privacy-preserving truth
// discovery for crowd sensing systems, reproducing Li et al., "Towards
// Differentially Private Truth Discovery for Crowd Sensing Systems"
// (ICDCS 2020).
//
// The mechanism (Algorithm 2 of the paper) combines two pieces:
//
//   - Local perturbation: each user samples a private noise variance
//     delta_s^2 from an exponential distribution with server-released
//     rate lambda2 and adds N(0, delta_s^2) noise to every reading before
//     it leaves the device. No coordination between users is needed, and
//     the realized noise distribution is unknown to the server, yielding
//     (epsilon, delta)-local differential privacy (Theorem 4.8).
//
//   - Weighted aggregation: the server runs iterative truth discovery
//     (CRH, GTM, ...) on the perturbed data. Because truth discovery
//     estimates per-user weights from agreement with the current truth
//     estimate, users who drew large noise are automatically
//     down-weighted, so the aggregate barely moves even under large
//     noise ((alpha, beta)-utility, Theorem 4.3).
//
// Quick start (library pipeline):
//
//	rng := pptd.NewRNG(42)
//	acct, _ := pptd.NewAccountant(1)                    // data quality lambda1
//	mech, _ := acct.MechanismForEpsilon(0.5, 0.3)       // (eps, delta) target
//	method, _ := pptd.NewCRH()
//	pipe, _ := pptd.NewPipeline(mech, method)
//	outcome, _ := pipe.Run(dataset, rng)
//	fmt.Println(outcome.UtilityMAE)                     // utility loss
//
// # Serving quick start: the Node front door
//
// Deployments build one Node from functional options — it hosts the
// streaming engine and durable persistence on a single HTTP mux whose
// every non-2xx response is a versioned JSON error envelope ({v, code,
// message, retry_after_windows?}). A one-shot campaign (Algorithm 2's
// collect-then-aggregate flow) is one window: every device submits, then
// POST /v1/stream/window publishes the estimate. With accounting on, a
// device submits once per window and a durable node journals each
// submission before its receipt. A long-running, accounted, durable
// deployment, perturbing at the rate that meets (eps, delta) = (0.5, 0.3)
// per window when the sensors' error variances follow rate lambda1 = 1.5:
//
//	acct, _ := pptd.NewAccountant(1.5)
//	mech, _ := acct.MechanismForEpsilon(0.5, 0.3)
//	node, _ := pptd.NewNode(
//		pptd.WithName("air-quality"),
//		pptd.WithStreamConfig(pptd.StreamConfig{
//			NumObjects:    30,
//			Lambda1:       1.5, Lambda2: mech.Lambda2(), Delta: 0.3,
//			EpsilonBudget: 5, // cumulative per-user cap
//		}),
//		pptd.WithWindowInterval(time.Minute), // ticker-driven window closes
//		pptd.WithPersistence("/var/lib/pptd"),
//	)
//	defer node.Close()
//	go http.ListenAndServe(":8080", node.Handler())
//
//	client, _ := pptd.NewClient("http://localhost:8080")
//	info, err := client.StreamTruths(ctx) // the latest closed window
//	if errors.Is(err, pptd.ErrNotReady) { ... } // typed, decoded from the envelope
//
// StreamConfig is the streaming engine's configuration — the one way to
// set anything about it, the privacy rates included — and the node adds
// only what it owns (the claim-WAL default and its store); its
// Estimator field is the one place the estimator is chosen. Conflicting
// or half-configured options fail NewNode with a typed error wrapping
// ErrNodeConfig (for example WithClusterCoordinator together with
// WithPersistence, or an EpsilonBudget without accounting) before
// anything is opened — nothing is silently defaulted. docs/API.md
// carries the endpoint table, the error-code table, the options
// reference, and the StreamConfig field table.
//
// # Streaming quick start
//
// The streaming engine serves continuous submission traffic: perturbed
// claims ingest concurrently into sharded workers, fold into
// exponentially-decayed sufficient statistics, and every window close
// re-estimates truths and weights incrementally with a pluggable
// estimator — incremental CRH (the default), GTM, or CATD, selected by
// StreamConfig.Estimator and warm-started from the previous window —
// while a privacy accountant tracks each user's cumulative (epsilon,
// delta) spending — one submission per user per window, so the
// per-window charge covers exactly one perturbed release and both
// epsilon and delta compose linearly over a user's windows:
//
//	node, _ := pptd.NewNode(pptd.WithStreamConfig(pptd.StreamConfig{
//		NumObjects: 30,
//		Decay:      0.8,              // forget stale windows
//		Lambda1:    1,                // enables budget accounting
//		Lambda2:    2, Delta: 0.3,
//	}))
//	defer node.Close()
//	node.Stream().Submit(pptd.CampaignSubmission{
//		ClientID: "device-1",
//		Claims:   []pptd.CampaignClaim{{Object: 0, Value: 3.2}},
//	})
//	res, _ := node.Stream().CloseWindow() // incremental truths + weights
//	fmt.Println(res.Truths[0], res.Privacy.MaxCumulative)
//
// On a closed window with decay disabled each incremental estimator
// matches its batch counterpart (CRH, GTM, or CATD) within 1e-9, and an
// engine recovered from a snapshot continues within the same bound —
// snapshots record which estimator wrote them, and restoring under a
// different one fails with ErrStreamEstimatorMismatch. The same engine
// backs the HTTP streaming campaign (NewNode(WithStreamConfig(cfg)), POST
// /v1/stream/claims, GET /v1/stream/truths); cmd/pptdserver serves it
// and cmd/pptduser -windows N drives a simulated fleet against it,
// reporting claims, budget refusals and accuracy per window. Privacy
// reports carry aggregates only, never the per-user epsilon map (the
// full historical client roster).
//
// # Durable streaming state
//
// A streaming privacy guarantee is only as durable as its ledger: if a
// restart erased cumulative epsilon, every returning client would
// re-spend its budget from zero. WithPersistence gives the node a
// state directory with an append-only, fsync'd journal of rolling
// segment files (one record per accepted submission — its (user,
// window) epsilon charge and, with StreamConfig.ClaimWAL, its claims —
// durable before the submission is acknowledged; concurrent
// submissions coalesce into group-commit batches that share one fsync,
// so the durable path scales with load, and full segments are sealed so
// snapshots compact by deleting covered segments instead of rewriting
// the journal), atomic checksummed engine snapshots written at every
// window close, and the last published window result:
//
//	node, _ := pptd.NewNode(
//		pptd.WithStreamConfig(pptd.StreamConfig{
//			NumObjects: 30, Lambda1: 1, Lambda2: 2, Delta: 0.3,
//		}),
//		pptd.WithWindowInterval(time.Minute), // optional ticker-driven window closes
//		pptd.WithPersistence("/var/lib/pptd"), // node owns the store; claim WAL on
//	)
//	defer node.Close()
//
// On startup the server restores the latest snapshot, replays the
// journal on top (re-running any window closes the journal implies),
// and serves the persisted previous estimate immediately, so a
// kill-and-recover deployment produces the same next-window truths and
// weights as an uninterrupted one (within 1e-9 with the claim WAL), a
// budget-exhausted user stays rejected after the restart, and GET
// /v1/stream/truths never regresses to 404 across a restart — including
// ?window=N reads over the persisted recent-result history. The full
// crash-recovery contract — what survives which failure, the fsync/ack
// ordering, and the group-commit trade-offs — is specified in
// docs/DURABILITY.md, and docs/ARCHITECTURE.md maps the paper's sections onto the packages
// and walks the ingest → journal → snapshot → recovery pipeline.
//
// The subpackage layout mirrors the paper: the mechanism and accountant
// live in internal/core, truth discovery in internal/truth, the
// closed-form analysis in internal/theory, data generators in
// internal/synthetic and internal/floorplan, the networked crowd sensing
// system in internal/crowd, the streaming engine in internal/stream,
// its durable state in internal/streamstore, and the
// figure-regeneration harness in internal/eval. This package
// re-exports the full public surface.
package pptd

import (
	"pptd/internal/core"
	"pptd/internal/randx"
)

// RNG is the deterministic random-number generator used by every
// stochastic component. See NewRNG.
type RNG = randx.RNG

// NewRNG returns a deterministic RNG seeded with seed (xoshiro256++
// seeded via splitmix64). The same seed always reproduces the same
// stream; derive independent streams with Split.
func NewRNG(seed uint64) *RNG { return randx.New(seed) }

// Mechanism is the paper's perturbation mechanism M, parameterized by
// the server-released noise-variance rate lambda2.
type Mechanism = core.Mechanism

// NewMechanism returns the perturbation mechanism with the given lambda2.
func NewMechanism(lambda2 float64) (*Mechanism, error) { return core.NewMechanism(lambda2) }

// UserPerturber perturbs a single user's readings with that user's
// private noise variance (client-side half of Algorithm 2).
type UserPerturber = core.UserPerturber

// PerturbationReport summarizes the noise injected by one dataset-level
// perturbation (simulation-only knowledge).
type PerturbationReport = core.Report

// Accountant converts between mechanism parameters and the
// (epsilon, delta)-local-differential-privacy guarantee (Theorem 4.8).
type Accountant = core.Accountant

// AccountantOption configures NewAccountant.
type AccountantOption = core.AccountantOption

// NewAccountant returns an accountant for a crowd whose error variances
// follow Exp(lambda1).
func NewAccountant(lambda1 float64, opts ...AccountantOption) (*Accountant, error) {
	return core.NewAccountant(lambda1, opts...)
}

// WithSensitivityTail overrides the Lemma 4.7 sensitivity-tail constants
// b and eta (defaults 3 and 0.95).
func WithSensitivityTail(b, eta float64) AccountantOption {
	return core.WithSensitivityTail(b, eta)
}

// Pipeline runs the full Algorithm 2 flow: perturb, aggregate, compare.
type Pipeline = core.Pipeline

// Outcome is the result of one Pipeline run.
type Outcome = core.Outcome

// NewPipeline returns a pipeline combining a mechanism with a
// truth-discovery method.
func NewPipeline(mechanism *Mechanism, method Method) (*Pipeline, error) {
	return core.NewPipeline(mechanism, method)
}

package pptd

import (
	"pptd/internal/cluster"
	"pptd/internal/crowd"
)

// ClusterCoordinator fronts a sharded multi-node deployment: it serves
// the standard streaming wire API while routing each user's claims to
// the worker owning them on a consistent hash ring, and drives
// cluster-wide window closes with the merge-estimate protocol — so the
// published truths match a single-node engine over the same claims
// within 1e-9, per estimator. Build one directly with
// NewClusterCoordinator, or host it in a Node with
// WithClusterCoordinator.
type ClusterCoordinator = cluster.Coordinator

// ClusterCoordinatorConfig parameterizes NewClusterCoordinator.
type ClusterCoordinatorConfig = cluster.Config

// ClusterRing is the consistent hash ring assigning user IDs to
// workers: a pure function of the worker set, so coordinators agree
// across restarts and each user's privacy ledger stays on one worker.
type ClusterRing = cluster.Ring

// SegmentShipper replicates a durable node's state directory — sealed
// journal segments, the active segment's durable prefix, snapshots,
// results, spill file — to a SegmentSink in the background. A Node
// starts one with WithSegmentShipping.
type SegmentShipper = cluster.Shipper

// SegmentSink is the shipping destination: a local archive directory
// (NewSegmentDirSink) or a remote follower over HTTP
// (NewSegmentHTTPSink).
type SegmentSink = cluster.Sink

// ClusterFollower receives shipped segments over HTTP into a local
// directory that a fresh node can recover from (warm standby /
// point-in-time restore / read replica).
type ClusterFollower = cluster.Follower

// ErrClusterConfig reports an invalid cluster configuration.
var ErrClusterConfig = cluster.ErrBadConfig

// ErrWorkerUnavailable reports a cluster request that could not reach
// the worker owning the user (envelope code "worker_unavailable",
// HTTP 503). The message names the worker; retry after it recovers.
var ErrWorkerUnavailable = crowd.ErrWorkerUnavailable

// NewClusterCoordinator builds and boot-syncs a cluster coordinator:
// every worker is contacted, the shared engine configuration is
// cross-checked, and the cluster's window position is adopted. It fails
// with ErrWorkerUnavailable when a worker cannot be reached.
func NewClusterCoordinator(cfg ClusterCoordinatorConfig) (*ClusterCoordinator, error) {
	return cluster.NewCoordinator(cfg)
}

// ClusterFollowerOptions tunes a follower's ingress limits: the
// per-file body cap (413 beyond it) and an optional shared bearer
// token both follower routes then require (401 without it).
type ClusterFollowerOptions = cluster.FollowerOptions

// NewClusterFollower serves the follower catch-up endpoints over dir
// with default limits: a 512 MiB per-file cap, no authentication.
func NewClusterFollower(dir string) (*ClusterFollower, error) {
	return cluster.NewFollower(dir)
}

// NewClusterFollowerWith serves the follower catch-up endpoints over
// dir with explicit ingress limits.
func NewClusterFollowerWith(dir string, opts ClusterFollowerOptions) (*ClusterFollower, error) {
	return cluster.NewFollowerWith(dir, opts)
}

// NewSegmentDirSink ships into a local archive directory.
func NewSegmentDirSink(dir string) (*cluster.DirSink, error) {
	return cluster.NewDirSink(dir)
}

// NewSegmentHTTPSink ships to a ClusterFollower at baseURL. Chain
// WithAuthToken on the result when the follower requires one.
func NewSegmentHTTPSink(baseURL string) (*cluster.HTTPSink, error) {
	return cluster.NewHTTPSink(baseURL, nil)
}

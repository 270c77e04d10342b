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
// within 1e-9, per estimator. Host one in a Node with
// WithClusterCoordinator.
type ClusterCoordinator = cluster.Coordinator

// ClusterRing is the consistent hash ring assigning user IDs to
// workers: a pure function of the worker set, so coordinators agree
// across restarts and each user's privacy ledger stays on one worker.
type ClusterRing = cluster.Ring

// SegmentShipper replicates a durable node's state directory — sealed
// journal segments, the active segment's durable prefix, snapshots,
// results, spill file — into a replica directory in the background. A
// Node starts one with WithSegmentShipping.
type SegmentShipper = cluster.Shipper

// ErrClusterConfig reports an invalid cluster configuration.
var ErrClusterConfig = cluster.ErrBadConfig

// ErrWorkerUnavailable reports a cluster request that could not reach
// the worker owning the user (envelope code "worker_unavailable",
// HTTP 503). The message names the worker; retry after it recovers.
var ErrWorkerUnavailable = crowd.ErrWorkerUnavailable

//go:build unix

package cluster

// idleConnsReused: idleAlive can check an idle socket on unix builds
// (idle_unix.go), so claims to one worker reuse its pooled connections.
const idleConnsReused = true

//go:build !unix

package cluster

import "net"

// idleAlive cannot tell a stale idle connection from a live one without
// a non-blocking socket read, so it reports none alive: every claim
// dials a connection of its own.
func idleAlive(net.Conn) bool { return false }

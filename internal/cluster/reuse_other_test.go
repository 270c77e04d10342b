//go:build !unix

package cluster

// idleConnsReused: idleAlive cannot check an idle socket on non-unix
// builds (idle_other.go), so every claim dials a connection of its own.
const idleConnsReused = false

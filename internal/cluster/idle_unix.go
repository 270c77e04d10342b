//go:build unix

package cluster

import (
	"crypto/tls"
	"net"
	"syscall"
)

// idleAlive reports whether an idle connection can carry the next
// request: one non-blocking read of its socket finds nothing to read. A
// worker that closed the connection (EOF) or wrote to it unasked makes
// it stale. A read under an already-expired deadline cannot tell: Go's
// poller fails it before it looks at the socket. On TLS, bytes the
// tls.Conn has already buffered go unseen.
func idleAlive(c net.Conn) bool {
	if tc, ok := c.(*tls.Conn); ok {
		c = tc.NetConn()
	}
	sc, ok := c.(syscall.Conn)
	if !ok {
		return true
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	alive := false
	err = raw.Read(func(fd uintptr) bool {
		var b [1]byte
		_, rerr := syscall.Read(int(fd), b[:])
		alive = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true
	})
	return err == nil && alive
}

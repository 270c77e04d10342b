package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"pptd/internal/crowd"
	"pptd/internal/obs"
	"pptd/internal/stream"
)

const (
	// maxIdlePerWorker bounds the idle connections kept to one worker; a
	// connection returned to a full pool is closed.
	maxIdlePerWorker = 64
	// replyDrainBytes bounds how much unread reply body is read past the
	// receipt or envelope so that its connection can be kept.
	replyDrainBytes = 4 << 10
)

// expired is a deadline in the past: setting it aborts a blocked read or
// write at once.
var expired = time.Unix(1, 0)

// forwarder carries routed claims to one worker. The calling goroutine
// writes one prepared HTTP/1.1 POST of the binary claim frame on a
// keep-alive connection and reads the reply itself, so a claim costs no
// hand-off to a transport's connection goroutines. Idle connections are
// kept in a LIFO, dialled on demand and released by close.
type forwarder struct {
	addr string      // host:port dialled
	tls  *tls.Config // nil for an http worker
	// head is the request up to the Content-Length value: the request
	// line to the worker's claims route, Host and Content-Type.
	head string

	mu     sync.Mutex
	idle   []*workerConn // most recently used last
	closed bool
}

// workerConn is one keep-alive connection to a worker, with its reply
// reader and the buffers its requests are built in.
type workerConn struct {
	net.Conn
	br         *bufio.Reader
	req, frame []byte
}

// newForwarder checks a worker base URL: http or https, with a host.
// The claims route is the URL's path plus crowd.PathStreamClaims, as a
// crowd.Client builds it. An https worker is dialled with tlsConf, or
// crypto/tls's default configuration when it is nil.
func newForwarder(worker string, tlsConf *tls.Config) (*forwarder, error) {
	u, err := url.Parse(worker + crowd.PathStreamClaims)
	if err != nil {
		return nil, fmt.Errorf("%w: worker URL %q: %v", ErrBadConfig, worker, err)
	}
	port := "80"
	switch {
	case u.Scheme == "https":
		port = "443"
	case u.Scheme != "http":
		return nil, fmt.Errorf("%w: worker URL %q: scheme must be http or https", ErrBadConfig, worker)
	}
	if u.Hostname() == "" {
		return nil, fmt.Errorf("%w: worker URL %q has no host", ErrBadConfig, worker)
	}
	if p := u.Port(); p != "" {
		port = p
	}
	fw := &forwarder{
		addr: net.JoinHostPort(u.Hostname(), port),
		head: "POST " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host +
			"\r\nContent-Type: " + crowd.ContentTypeClaims + "\r\nContent-Length: ",
	}
	if u.Scheme == "https" {
		fw.tls = new(tls.Config)
		if tlsConf != nil {
			fw.tls = tlsConf.Clone()
		}
		// The claim is HTTP/1.1: offer no other protocol.
		fw.tls.NextProtos = nil
	}
	return fw, nil
}

// warm dials one connection and keeps it for the next claim, so that a
// worker the claims cannot reach is found before the first claim.
func (fw *forwarder) warm(ctx context.Context) error {
	wc, err := fw.get(ctx, time.Now().Add(crowd.RequestTimeout))
	if err != nil {
		return err
	}
	fw.put(wc)
	return nil
}

// submit forwards one claim batch under the context's request ID and
// returns the worker's receipt or its decoded rejection. The exchange
// has crowd.RequestTimeout, cut short when ctx ends. A request once
// written is never retried, and its connection is kept only after a
// complete Content-Length reply that does not ask to close.
func (fw *forwarder) submit(ctx context.Context, clientID string, claims []stream.Claim) (crowd.StreamReceipt, error) {
	if err := ctx.Err(); err != nil {
		return crowd.StreamReceipt{}, err
	}
	deadline := time.Now().Add(crowd.RequestTimeout)
	wc, err := fw.get(ctx, deadline)
	if err != nil {
		return crowd.StreamReceipt{}, err
	}
	stop := context.AfterFunc(ctx, func() { _ = wc.SetDeadline(expired) })
	receipt, keep, err := fw.exchange(ctx, wc, clientID, claims)
	if !stop() {
		// The context ended: the hook has set, or is about to set, an
		// expired deadline on the connection, which may have cut the
		// exchange and would cut the next one.
		keep = false
		if err != nil {
			err = fmt.Errorf("%w (%v)", context.Cause(ctx), err)
		}
	}
	if keep {
		fw.put(wc)
	} else {
		_ = wc.Close()
	}
	return receipt, err
}

// exchange writes one claim request on wc and reads its reply.
func (fw *forwarder) exchange(ctx context.Context, wc *workerConn, clientID string, claims []stream.Claim) (receipt crowd.StreamReceipt, keep bool, err error) {
	id := obs.RequestID(ctx)
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	wc.frame = crowd.AppendClaimFrame(wc.frame[:0], clientID, claims)
	req := append(wc.req[:0], fw.head...)
	req = strconv.AppendInt(req, int64(len(wc.frame)), 10)
	req = append(req, "\r\n"+crowd.HeaderRequestID+": "...)
	req = append(req, id...)
	req = append(req, "\r\n\r\n"...)
	req = append(req, wc.frame...)
	wc.req = req
	if _, err := wc.Write(req); err != nil {
		return receipt, false, err
	}
	resp, err := http.ReadResponse(wc.br, nil)
	if err != nil {
		return receipt, false, err
	}
	if resp.StatusCode/100 == 2 {
		if err = json.NewDecoder(resp.Body).Decode(&receipt); err != nil {
			err = fmt.Errorf("decode receipt: %w", err)
		}
	} else {
		err = crowd.ReplyError(resp)
	}
	keep = resp.StatusCode >= http.StatusOK && resp.ContentLength >= 0 && !resp.Close && drained(resp.Body)
	return receipt, keep, err
}

// drained reads what is left of a reply body and reports whether it
// ended, complete, within replyDrainBytes.
func drained(body io.Reader) bool {
	_, err := io.CopyN(io.Discard, body, replyDrainBytes+1)
	return err == io.EOF
}

// get returns a live idle connection with its deadline set, or dials a
// new one. An idle connection the worker has closed or written to since
// its last reply is stale: it is closed, and the next one is tried.
func (fw *forwarder) get(ctx context.Context, deadline time.Time) (*workerConn, error) {
	for {
		fw.mu.Lock()
		n := len(fw.idle)
		if n == 0 {
			fw.mu.Unlock()
			break
		}
		wc := fw.idle[n-1]
		fw.idle[n-1] = nil
		fw.idle = fw.idle[:n-1]
		fw.mu.Unlock()
		if wc.SetDeadline(deadline) == nil && wc.br.Buffered() == 0 && idleAlive(wc.Conn) {
			return wc, nil
		}
		_ = wc.Close()
	}
	d := net.Dialer{Deadline: deadline}
	var conn net.Conn
	var err error
	if fw.tls != nil {
		conn, err = (&tls.Dialer{NetDialer: &d, Config: fw.tls}).DialContext(ctx, "tcp", fw.addr)
	} else {
		conn, err = d.DialContext(ctx, "tcp", fw.addr)
	}
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return &workerConn{Conn: conn, br: bufio.NewReader(conn)}, nil
}

// put keeps a connection for the next claim, or closes it when the
// forwarder is closed or its pool is full.
func (fw *forwarder) put(wc *workerConn) {
	fw.mu.Lock()
	if !fw.closed && len(fw.idle) < maxIdlePerWorker {
		fw.idle = append(fw.idle, wc)
		wc = nil
	}
	fw.mu.Unlock()
	if wc != nil {
		_ = wc.Close()
	}
}

// close closes the idle connections; one in use is closed when its
// claim returns it.
func (fw *forwarder) close() error {
	fw.mu.Lock()
	idle := fw.idle
	fw.idle, fw.closed = nil, true
	fw.mu.Unlock()
	var errs []error
	for _, wc := range idle {
		errs = append(errs, wc.Close())
	}
	return errors.Join(errs...)
}

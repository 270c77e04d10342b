package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pptd"
)

// rawConn is one keep-alive HTTP/1.1 connection of the load generator.
// Requests are written as pre-framed bytes and responses parsed just far
// enough to read the status and a Content-Length body, so a submission
// costs the generator two syscalls and next to no allocation — the timed path
// does no encoding (run rule 3) and adds as little scheduler noise as it
// can to a box whose cores the server needs.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(front string) (*rawConn, error) {
	c, err := net.Dial("tcp", strings.TrimPrefix(front, "http://"))
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 4096), body: make([]byte, 0, 2048)}, nil
}

var errNoContentLength = errors.New("response without Content-Length")

// roundTrip sends one framed request and returns the response status
// and body; the body is only valid until the next call.
func (rc *rawConn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length := -1
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const key = "Content-Length: "
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(key):])))
			if err != nil {
				return 0, nil, err
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoContentLength
	}
	if cap(rc.body) < length {
		rc.body = make([]byte, length)
	}
	rc.body = rc.body[:length]
	if _, err := io.ReadFull(rc.br, rc.body); err != nil {
		return 0, nil, err
	}
	return status, rc.body, nil
}

// jsonInt reads one top-level integer field of a small JSON object
// without decoding the rest; -1 when absent.
func jsonInt(body []byte, field string) int {
	i := bytes.Index(body, []byte(`"`+field+`":`))
	if i < 0 {
		return -1
	}
	i += len(field) + 3
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(body[i:j]))
	if err != nil {
		return -1
	}
	return n
}

// loadgen drives one deployment from this process: conns keep-alive
// connections with one submission in flight each (never more than
// cores, run rule 1), plus a plain net/http client for the campaign
// owner's closes and reads.
type loadgen struct {
	f     *fleet
	front string
	conns []*rawConn
	owner *http.Client
	tr    *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	firstOnce sync.Once
	firstErr  error // set once; read after the generator's goroutines are done
}

func newLoadgen(f *fleet, front string, conns int, tr *tracer) (*loadgen, error) {
	g := &loadgen{f: f, front: front, tr: tr, owner: &http.Client{Transport: &http.Transport{}}}
	for i := 0; i < conns; i++ {
		rc, err := dialRaw(front)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, rc)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, rc := range g.conns {
		_ = rc.c.Close()
	}
	g.owner.CloseIdleConnections()
}

// fail counts one failed operation and keeps the first cause for the
// run's error message.
func (g *loadgen) fail(err error) {
	g.failed.Add(1)
	g.firstOnce.Do(func() { g.firstErr = err })
}

// submit sends device u's prepared request on rc and checks the receipt:
// 200, every claim accepted, and (when wantWindow > 0) the window the
// generator expects to be open. It returns the receipt's window, 0 on
// failure.
func (g *loadgen) submit(rc *rawConn, u, wantWindow int) int {
	g.attempted.Add(1)
	span := g.tr.start("loadgen.submit", g.f.ids[u], 0)
	status, body, err := rc.roundTrip(g.f.request(u))
	g.tr.end(span)
	if err != nil {
		g.fail(fmt.Errorf("submit %s: %w", g.f.ids[u], err))
		return 0
	}
	window := jsonInt(body, "window")
	if status != http.StatusOK || jsonInt(body, "accepted") != g.f.w.objects || window < 1 ||
		(wantWindow > 0 && window != wantWindow) {
		g.fail(fmt.Errorf("submit %s: status %d, want window %d, body %s", g.f.ids[u], status, wantWindow, body))
		return 0
	}
	return window
}

// ingestWindow is one closed-loop window: every device submits passes
// times over the generator's connections, each connection sending its
// next request only after the previous ack. lat, when non-nil, receives
// one ack latency per accepted submission (per-connection slices, so
// recording takes no lock). It returns the accepted count and the wall
// time of the ingest phase.
func (g *loadgen) ingestWindow(passes, wantWindow int, lat [][]time.Duration) (int, time.Duration) {
	total := int64(g.f.w.users * passes)
	var next, accepted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ci, rc := range g.conns {
		wg.Add(1)
		go func(ci int, rc *rawConn) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				if g.submit(rc, int(i)%g.f.w.users, wantWindow) == 0 {
					continue
				}
				if lat != nil {
					lat[ci] = append(lat[ci], time.Since(t0))
				}
				accepted.Add(1)
			}
		}(ci, rc)
	}
	wg.Wait()
	return int(accepted.Load()), time.Since(start)
}

// ownerDo runs one campaign-owner request and decodes the JSON answer
// into out, returning the round trip including the body read.
func (g *loadgen) ownerDo(method, path, span string, out any) (time.Duration, error) {
	req, err := http.NewRequest(method, g.front+path, nil)
	if err != nil {
		return 0, err
	}
	id := g.tr.start(span, "", 0)
	if id != 0 {
		req.Header.Set("X-Request-ID", spanRequestID(id))
	}
	start := time.Now()
	resp, err := g.owner.Do(req)
	if err != nil {
		g.tr.end(id)
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	took := time.Since(start)
	g.tr.end(id)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return took, nil
}

// closeWindow closes the open window at the front door and checks what
// the campaign owner relies on: the window index, the number of claims
// the window ingested and the number of devices behind the estimate.
func (g *loadgen) closeWindow(wantWindow int, wantClaims int64, wantActive int) (pptd.StreamWindowInfo, time.Duration, error) {
	g.attempted.Add(1)
	var info pptd.StreamWindowInfo
	took, err := g.ownerDo(http.MethodPost, "/v1/stream/window", "loadgen.close", &info)
	if err == nil && (info.Window != wantWindow || info.ActiveUsers != wantActive ||
		(wantClaims >= 0 && info.WindowClaims != wantClaims)) {
		err = fmt.Errorf("close: window %d claims %d active %d, want %d/%d/%d",
			info.Window, info.WindowClaims, info.ActiveUsers, wantWindow, wantClaims, wantActive)
	}
	if err != nil {
		g.fail(err)
	}
	return info, took, err
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"pptd"
)

// served is one pptd node behind a loopback http.Server the benchmark
// owns.
type served struct {
	node *pptd.Node
	srv  *http.Server
	done chan struct{} // closed when Serve returned
	addr string
}

// serve builds a node from opts and serves its handler on addr
// ("127.0.0.1:0" picks a port). wrap, when non-nil, decorates the
// handler — the traced run's only hook on the server side.
func serve(addr string, wrap func(http.Handler) http.Handler, opts ...pptd.Option) (*served, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	node, err := pptd.NewNode(opts...)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	h := node.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &served{
		node: node,
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
		addr: ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and closes
// the node (which writes its final snapshot on a durable node).
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return errors.Join(err, s.node.Close())
}

// deployment is a workload's running system: one durable node, or a
// coordinator in front of durable workers. front is the base URL devices
// and the campaign owner talk to.
type deployment struct {
	front string
	nodes []*served // workers first, the front door last
}

// stateDirs names the durable state directories of a deployment rooted
// at dir: one per durable node.
func (w workload) stateDirs(dir string) []string {
	if w.workers == 0 {
		return []string{filepath.Join(dir, "node")}
	}
	dirs := make([]string, w.workers)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("worker-%d", i))
	}
	return dirs
}

// boot starts the workload's deployment over the state under dir,
// recovering whatever is there. addrs pins the listen addresses (same
// order as deployment.nodes) so a replacement cluster keeps the worker
// URLs its hash ring was built from; nil picks fresh ports. tr, when
// non-nil, installs the traced run's decorators.
func (w workload) boot(dir string, addrs []string, tr *tracer) (*deployment, error) {
	addr := func(i int) string {
		if addrs != nil {
			return addrs[i]
		}
		return "127.0.0.1:0"
	}
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			_ = d.stop()
		}
	}()
	durable := func(i int, stateDir, span string, extra ...pptd.Option) error {
		cfg := w.engineConfig()
		var ledger *tracedLedger
		if tr != nil && w.accounting {
			// The node opens its own store, so the decorator is handed
			// over empty and pointed at the store once the node exists.
			ledger = &tracedLedger{tr: tr}
			cfg.Ledger = ledger
		}
		opts := append([]pptd.Option{
			pptd.WithName(w.name),
			pptd.WithStreamConfig(cfg),
			pptd.WithPersistence(stateDir),
		}, extra...)
		s, err := serve(addr(i), tr.handler(span), opts...)
		if err != nil {
			return err
		}
		if ledger != nil {
			ledger.inner = s.node.Store()
		}
		d.nodes = append(d.nodes, s)
		return nil
	}

	dirs := w.stateDirs(dir)
	if w.workers == 0 {
		if err := durable(0, dirs[0], "http.front"); err != nil {
			return nil, err
		}
	} else {
		urls := make([]string, w.workers)
		for i, sd := range dirs {
			if err := durable(i, sd, "http.worker", pptd.WithClusterWorker()); err != nil {
				return nil, err
			}
			urls[i] = "http://" + d.nodes[i].addr
		}
		coord, err := serve(addr(w.workers), tr.handler("http.front"),
			pptd.WithName(w.name),
			pptd.WithStreamConfig(w.engineConfig()),
			pptd.WithClusterCoordinator(urls...))
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, coord)
	}
	d.front = "http://" + d.nodes[len(d.nodes)-1].addr
	ok = true
	return d, nil
}

func (d *deployment) addrs() []string {
	out := make([]string, len(d.nodes))
	for i, s := range d.nodes {
		out[i] = s.addr
	}
	return out
}

// stop shuts the deployment down gracefully, front door first.
func (d *deployment) stop() error {
	var errs []error
	for i := len(d.nodes) - 1; i >= 0; i-- {
		errs = append(errs, d.nodes[i].stop())
	}
	d.nodes = nil
	return errors.Join(errs...)
}

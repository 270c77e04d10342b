package main

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"pptd"
	"pptd/internal/stats"
)

// copyTree copies a state directory: the crash image. Whatever the node
// had made durable before acking is in these files; nothing a graceful
// Close would add is.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close()
			return err
		}
		return out.Close()
	})
}

// recoverDrill measures restart time. With a window open and every ack
// in, the state dirs are copied (the crash image: no graceful Close ran
// on them), the original deployment is stopped, and replacement node(s)
// boot on each fresh copy, on the original addresses so a cluster keeps
// its hash ring. The clock runs from boot until the front door answers
// for the pre-crash window; the answer is then checked against what the
// original published. Returns the median over the copies.
func recoverDrill(rc runConfig, e *env, published pptd.StreamWindowInfo) (float64, error) {
	n, _ := e.g.ingestWindow(1, e.window+1, nil)
	open := int64(n * rc.w.objects)
	e.claimed += open
	wantClaims := e.claimed
	if !rc.w.accounting {
		// No ledger, no journal: the open window's claims die with the
		// process, by design. The snapshot of the last close survives.
		wantClaims -= open
	}

	images := make([]string, rc.recoveries)
	for i := range images {
		images[i] = filepath.Join(rc.workdir, fmt.Sprintf("crash-%d", i))
		if err := copyTree(e.dir, images[i]); err != nil {
			return 0, err
		}
	}
	// Push the copies out of the page cache's dirty list now: on ext4 a
	// later fsync of the recovering node would otherwise wait for them.
	syscall.Sync()
	addrs := e.d.addrs()
	e.g.close()
	if err := e.d.stop(); err != nil {
		return 0, err
	}

	var times []float64
	for _, image := range images {
		e.g.attempted.Add(1)
		took, err := recoverOnce(rc, e, image, addrs, published, wantClaims)
		if err != nil {
			e.g.fail(err)
			return 0, fmt.Errorf("recover %s: %w", filepath.Base(image), err)
		}
		times = append(times, took.Seconds())
	}
	return stats.Median(times), nil
}

func recoverOnce(rc runConfig, e *env, image string, addrs []string, published pptd.StreamWindowInfo, wantClaims int64) (time.Duration, error) {
	start := time.Now()
	d, err := rc.w.boot(image, addrs, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = d.stop() }()
	g := &loadgen{f: e.f, front: d.front, owner: &http.Client{Transport: &http.Transport{}}}
	defer g.close()

	// A restarted coordinator holds no result history (durability lives
	// on the workers), so a cluster answers for the pre-crash window with
	// its campaign position; a single node serves the persisted truths.
	var camp pptd.StreamCampaignInfo
	var truths pptd.StreamWindowInfo
	if rc.w.workers > 0 {
		_, err = g.ownerDo(http.MethodGet, "/v1/stream/campaign", "", &camp)
	} else {
		_, err = g.ownerDo(http.MethodGet, "/v1/stream/truths", "", &truths)
	}
	took := time.Since(start)
	if err != nil {
		return 0, err
	}

	if rc.w.workers == 0 {
		if truths.Window != published.Window || len(truths.Truths) != len(published.Truths) {
			return 0, fmt.Errorf("recovered window %d, want %d", truths.Window, published.Window)
		}
		for n, v := range published.Truths {
			if truths.Truths[n] != v {
				return 0, fmt.Errorf("recovered truth[%d] = %v, published %v", n, truths.Truths[n], v)
			}
		}
		if _, err := g.ownerDo(http.MethodGet, "/v1/stream/campaign", "", &camp); err != nil {
			return 0, err
		}
	}
	if camp.Window != published.Window || camp.TotalClaims != wantClaims {
		return 0, fmt.Errorf("recovered campaign at window %d with %d claims, want %d and %d",
			camp.Window, camp.TotalClaims, published.Window, wantClaims)
	}
	tracked := 0
	for _, s := range d.nodes {
		if st := s.node.Stream(); st != nil {
			tracked += st.Stats().ResidentUsers
		}
	}
	if tracked != rc.w.users {
		return 0, fmt.Errorf("recovered %d tracked users, want %d", tracked, rc.w.users)
	}
	return took, nil
}

package pptd_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciFilter matches a `go test` -run or -fuzz flag in the workflow and
// captures its pattern, quoted or bare.
var ciFilter = regexp.MustCompile(`-(?:run|fuzz)\s+('[^']*'|[^\s'\\]+)`)

// testFunc matches a test or fuzz target declaration.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// TestCIRunFiltersMatchTests keeps the CI workflow honest as tests are
// renamed or deleted: `go test -run X` with no test named X passes
// silently, so a stale filter would quietly drop its coverage. Every
// alternative of every -run / -fuzz pattern in .github/workflows/ci.yml
// must match, as a Go regexp, at least one Test or Fuzz function of
// this module.
func TestCIRunFiltersMatchTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("read CI workflow: %v", err)
	}
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan test files: %v", err)
	}
	if len(names) == 0 {
		t.Fatal("found no Test or Fuzz functions")
	}

	filters := ciFilter.FindAllStringSubmatch(string(ci), -1)
	if len(filters) == 0 {
		t.Fatal("found no -run or -fuzz filter in the CI workflow")
	}
	for _, f := range filters {
		pattern := strings.Trim(f[1], "'")
		// go test splits a pattern on '/' into per-level patterns; the
		// first level names the top-level test.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			if alt == "^$" {
				continue // the "run no tests" idiom in front of -fuzz
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("CI filter %q: alternative %q is not a regexp: %v", pattern, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("CI filter %q: alternative %q matches no Test or Fuzz function", pattern, alt)
			}
		}
	}
}

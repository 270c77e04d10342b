package pptd_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// trajectoryEntry is one paired benchmark measurement in a
// BENCH_<workload>.json trajectory file: one PR, one seed.
type trajectoryEntry struct {
	PR      int                         `json:"pr"`
	Commit  string                      `json:"commit"`
	Parent  string                      `json:"parent"`
	Date    string                      `json:"date"`
	Seed    int                         `json:"seed"`
	Pairs   int                         `json:"pairs"`
	Claim   *string                     `json:"claim"`
	Metrics map[string]trajectoryMetric `json:"metrics"`
}

type trajectoryMetric struct {
	Parent trajectoryStat `json:"parent"`
	Change trajectoryStat `json:"change"`
	Better string         `json:"better"`
}

type trajectoryStat struct {
	Median *float64 `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

var (
	hashRE   = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	betterRE = regexp.MustCompile(`^(\d+)/(\d+)$`)
)

// TestBenchTrajectoryFiles checks the committed performance trajectory:
// one BENCH_<workload>.json per workload BENCHMARK.json declares, each
// parsing to date-ordered entries whose metrics carry a parent and a
// change median (quartiles, when given, around it), with wins counted
// over the entry's pairs. Only the newest PR's entries may lack their
// commit — a PR cannot know its own hash.
func TestBenchTrajectoryFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range bench.Workloads {
		name := fmt.Sprintf("BENCH_%s.json", w.Name)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Workload string            `json:"workload"`
				Entries  []trajectoryEntry `json:"entries"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if file.Workload != w.Name {
				t.Fatalf("workload = %q, want %q", file.Workload, w.Name)
			}
			if len(file.Entries) == 0 {
				t.Fatal("no entries")
			}
			var last time.Time
			for i, e := range file.Entries {
				where := fmt.Sprintf("entry %d (PR %d, seed %d)", i, e.PR, e.Seed)
				date, err := time.Parse("2006-01-02", e.Date)
				if err != nil {
					t.Fatalf("%s: date %q: %v", where, e.Date, err)
				}
				if date.Before(last) {
					t.Errorf("%s: dated %s, before the entry above it", where, e.Date)
				}
				last = date
				newest := e.PR == file.Entries[len(file.Entries)-1].PR
				if !hashRE.MatchString(e.Parent) || (!hashRE.MatchString(e.Commit) && (e.Commit != "" || !newest)) {
					t.Errorf("%s: commit %q, parent %q are not commit hashes", where, e.Commit, e.Parent)
				}
				if e.PR <= 0 || e.Seed <= 0 || e.Pairs <= 0 || len(e.Metrics) == 0 {
					t.Errorf("%s: want a PR, a seed, pairs and metrics", where)
				}
				if e.Claim != nil {
					if _, ok := e.Metrics[*e.Claim]; !ok {
						t.Errorf("%s: claims %q but does not report it", where, *e.Claim)
					}
				}
				for name, m := range e.Metrics {
					for side, s := range map[string]trajectoryStat{"parent": m.Parent, "change": m.Change} {
						switch {
						case s.Median == nil:
							t.Errorf("%s: %s has no %s median", where, name, side)
						case (s.Q1 == nil) != (s.Q3 == nil):
							t.Errorf("%s: %s %s has one quartile", where, name, side)
						case s.Q1 != nil && !(*s.Q1 <= *s.Median && *s.Median <= *s.Q3):
							t.Errorf("%s: %s %s quartiles %v..%v do not bracket the median %v", where, name, side, *s.Q1, *s.Q3, *s.Median)
						}
					}
					if m.Better == "" {
						continue // no per-pair comparison was recorded
					}
					sub := betterRE.FindStringSubmatch(m.Better)
					if sub == nil || sub[2] != fmt.Sprint(e.Pairs) {
						t.Errorf("%s: %s better %q, want k/%d", where, name, m.Better, e.Pairs)
					}
				}
			}
		})
	}
}

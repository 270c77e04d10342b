// Package obstest parses the Prometheus text exposition internal/obs
// writes, so tests and smoke checks can assert on /metrics output:
// ParseText checks the format's invariants (declared types, cumulative
// histogram buckets) and returns the samples.
package obstest

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name (for histograms,
// the expanded _bucket/_sum/_count name), its labels, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for the named label ("" if absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// ParsedMetrics is the result of ParseText: every sample plus the
// declared family types, for asserting exposition-format invariants in
// tests and smoke checks.
type ParsedMetrics struct {
	Samples []Sample
	// Types maps family name to the declared # TYPE keyword.
	Types map[string]string
	// Help maps family name to the declared # HELP text (unescaped).
	Help map[string]string
}

// Find returns the samples with the given name.
func (p *ParsedMetrics) Find(name string) []Sample {
	var out []Sample
	for _, s := range p.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the single sample value for name with exactly the given
// label pairs (alternating name, value), or an error when absent or
// ambiguous.
func (p *ParsedMetrics) Value(name string, labelPairs ...string) (float64, error) {
	if len(labelPairs)%2 != 0 {
		return 0, fmt.Errorf("obs: label pairs must alternate name, value")
	}
	want := make(map[string]string, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		want[labelPairs[i]] = labelPairs[i+1]
	}
	var found []Sample
	for _, s := range p.Find(name) {
		if len(s.Labels) != len(want) {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			found = append(found, s)
		}
	}
	switch len(found) {
	case 0:
		return 0, fmt.Errorf("obs: no sample %s%v", name, labelPairs)
	case 1:
		return found[0].Value, nil
	default:
		return 0, fmt.Errorf("obs: %d samples match %s%v", len(found), name, labelPairs)
	}
}

// ParseText parses the Prometheus text exposition format (the subset
// WriteText emits, which is also what real exporters produce): # HELP
// and # TYPE comments, and `name{labels} value` samples. It enforces
// the invariants a scraper relies on — valid metric and label names,
// # TYPE declared before a family's first sample, parseable values,
// and, for histograms, non-decreasing cumulative buckets whose +Inf
// bucket equals _count.
func ParseText(r io.Reader) (*ParsedMetrics, error) {
	p := &ParsedMetrics{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := p.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, ok := p.Types[familyOf(s.Name, p.Types)]; !ok {
			return nil, fmt.Errorf("line %d: sample %q before its # TYPE", lineNo, s.Name)
		}
		p.Samples = append(p.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.checkHistograms(); err != nil {
		return nil, err
	}
	return p, nil
}

// familyOf maps a sample name to its family: histogram samples carry
// _bucket/_sum/_count suffixes on the family name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func (p *ParsedMetrics) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		name, typ := fields[2], ""
		if len(fields) == 4 {
			typ = fields[3]
		}
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in # TYPE", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("invalid type %q for metric %q", typ, name)
		}
		if _, dup := p.Types[name]; dup {
			return fmt.Errorf("duplicate # TYPE for %q", name)
		}
		p.Types[name] = typ
	case "HELP":
		name := fields[2]
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in # HELP", name)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		p.Help[name] = unescapeHelp(help)
	}
	return nil
}

func unescapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	return strings.ReplaceAll(s, `\\`, `\`)
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", s.Name, err)
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp], got %q", s.Name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value %q", s.Name, fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at in[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(in string, out map[string]string) (int, error) {
	i := 1
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == ',') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(in) && in[i] != '=' {
			i++
		}
		if i >= len(in) {
			return 0, fmt.Errorf("unterminated label name")
		}
		name := in[start:i]
		if name != "le" && !validName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // '='
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %q: want quoted value", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("label %q: unterminated value", name)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return 0, fmt.Errorf("label %q: dangling escape", name)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %q: bad escape \\%c", name, in[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		out[name] = val.String()
	}
}

// checkHistograms verifies, per histogram series, that cumulative
// bucket counts are sorted by bound and non-decreasing, and that the
// +Inf bucket equals the _count sample.
func (p *ParsedMetrics) checkHistograms() error {
	type series struct {
		buckets []Sample
		count   *float64
	}
	bySeries := map[string]*series{}
	key := func(fam string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(fam)
		for _, k := range keys {
			b.WriteString("\x1f")
			b.WriteString(k)
			b.WriteString("=")
			b.WriteString(labels[k])
		}
		return b.String()
	}
	get := func(k string) *series {
		s, ok := bySeries[k]
		if !ok {
			s = &series{}
			bySeries[k] = s
		}
		return s
	}
	for _, s := range p.Samples {
		fam := familyOf(s.Name, p.Types)
		if p.Types[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			sr := get(key(fam, s.Labels))
			sr.buckets = append(sr.buckets, s)
		case strings.HasSuffix(s.Name, "_count"):
			v := s.Value
			get(key(fam, s.Labels)).count = &v
		}
	}
	for k, sr := range bySeries {
		sort.Slice(sr.buckets, func(i, j int) bool {
			return leBound(sr.buckets[i]) < leBound(sr.buckets[j])
		})
		prev := -1.0
		var inf *float64
		for _, b := range sr.buckets {
			if b.Value < prev {
				return fmt.Errorf("histogram %s: bucket counts decrease", k)
			}
			prev = b.Value
			if b.Label("le") == "+Inf" {
				v := b.Value
				inf = &v
			}
		}
		if inf == nil {
			return fmt.Errorf("histogram %s: no +Inf bucket", k)
		}
		if sr.count == nil {
			return fmt.Errorf("histogram %s: no _count sample", k)
		}
		if *inf != *sr.count {
			return fmt.Errorf("histogram %s: le=+Inf bucket %v != _count %v", k, *inf, *sr.count)
		}
	}
	return nil
}

func leBound(s Sample) float64 {
	le := s.Label("le")
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return float64(1 << 62)
	}
	return v
}

// validName reports whether s is a legal metric or label name,
// [a-zA-Z_:][a-zA-Z0-9_:]*. The parser checks the exposition against the
// format's grammar itself rather than reuse the writer's check, so a
// writer bug cannot hide behind a shared one.
func validName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

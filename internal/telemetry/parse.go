package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition is a parsed Prometheus text scrape: series values keyed by
// the canonical name{labels} signature, plus the families seen with their
// declared types. It is the client-side mirror of WritePrometheus — the
// CLI table renderer, the CI assertions and the smoke test all consume a
// scrape through this parser, so "the exposition parses" is a tested
// property, not an assumption.
type Exposition struct {
	// Series maps name{labels} (labels in scrape order) to the sample value.
	Series map[string]float64
	// Types maps family name to the declared TYPE (counter/gauge/histogram).
	Types map[string]string
	// Names lists series keys in scrape order.
	Names []string
}

// ParseExposition parses Prometheus text exposition format 0.0.4 (the
// subset WritePrometheus emits: HELP/TYPE comments and simple samples; no
// timestamps, no exemplars).
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{
		Series: make(map[string]float64),
		Types:  make(map[string]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				exp.Types[fields[2]] = fields[3]
			}
			continue
		}
		key, val, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		if _, dup := exp.Series[key]; dup {
			return nil, fmt.Errorf("exposition line %d: duplicate series %s", lineNo, key)
		}
		exp.Series[key] = val
		exp.Names = append(exp.Names, key)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// parseSampleLine splits `name{labels} value` into its canonical series
// key and float value, validating label-block syntax.
func parseSampleLine(line string) (string, float64, error) {
	var key, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end := -1
		inQuote, escaped := false, false
		for j := i + 1; j < len(line); j++ {
			c := line[j]
			switch {
			case escaped:
				escaped = false
			case c == '\\' && inQuote:
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", 0, fmt.Errorf("unterminated label block")
		}
		key, rest = line[:end+1], strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", 0, fmt.Errorf("want `name value`, got %q", line)
		}
		key, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value %q: %w", rest, err)
	}
	return key, v, nil
}

// Get returns the series value under the exact name{labels} key.
func (e *Exposition) Get(key string) (float64, bool) {
	v, ok := e.Series[key]
	return v, ok
}

// Family returns every series of one family (matching the bare name or a
// name{...} prefix), in scrape order.
func (e *Exposition) Family(name string) []string {
	var out []string
	for _, k := range e.Names {
		if k == name || strings.HasPrefix(k, name+"{") {
			out = append(out, k)
		}
	}
	return out
}

// HistQuantile estimates quantile q of a scraped histogram family (base
// name without _bucket) whose series carry the given rendered label block
// ("" for unlabeled), using the same bucket interpolation the in-process
// Histogram uses.
func (e *Exposition) HistQuantile(name, labels string, q float64) (float64, bool) {
	type bkt struct {
		le  float64
		cum uint64
	}
	var bkts []bkt
	prefix := name + "_bucket"
	for _, k := range e.Names {
		if !strings.HasPrefix(k, prefix+"{") {
			continue
		}
		lb := k[len(prefix):]
		le, rest, ok := extractLE(lb)
		if !ok || rest != labels {
			continue
		}
		bkts = append(bkts, bkt{le: le, cum: uint64(e.Series[k])})
	}
	if len(bkts) == 0 {
		return 0, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	var bounds []float64
	var cum []uint64
	for _, b := range bkts {
		if math.IsInf(b.le, 1) {
			cum = append(cum, b.cum)
			continue
		}
		bounds = append(bounds, b.le)
		cum = append(cum, b.cum)
	}
	total := cum[len(cum)-1]
	return quantileFromBuckets(bounds, cum, total, q), true
}

// extractLE removes the le label from a rendered label block, returning
// its value and the block without it (canonical residual ordering).
func extractLE(labels string) (le float64, rest string, ok bool) {
	if !strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}") {
		return 0, "", false
	}
	inner := labels[1 : len(labels)-1]
	parts := splitLabels(inner)
	var kept []string
	found := false
	for _, p := range parts {
		k, v, okp := cutLabel(p)
		if !okp {
			return 0, "", false
		}
		if k == "le" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, "", false
			}
			le, found = f, true
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return 0, "", false
	}
	if len(kept) == 0 {
		return le, "", true
	}
	return le, "{" + strings.Join(kept, ",") + "}", true
}

// splitLabels splits `k="v",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\' && inQuote:
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// cutLabel splits one `k="v"` pair, unescaping the value.
func cutLabel(p string) (k, v string, ok bool) {
	i := strings.Index(p, `="`)
	if i < 1 || len(p) < i+3 || !strings.HasSuffix(p, `"`) {
		return "", "", false
	}
	k = p[:i]
	raw := p[i+2 : len(p)-1]
	var b strings.Builder
	escaped := false
	for _, c := range raw {
		if escaped {
			switch c {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteRune(c)
			}
			escaped = false
			continue
		}
		if c == '\\' {
			escaped = true
			continue
		}
		b.WriteRune(c)
	}
	return k, b.String(), true
}

// Prometheus text-format parsing: the read side of the exposition. It
// exists so the repo can close its own loop — the exposition tests parse
// every line the registry writes, the service's stats-consistency test
// cross-checks /metrics against /v1/stats, and cmd/galsload reads its
// latency percentiles back out of the scraped histograms — without an
// external client library.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsedSample is one non-comment exposition line.
type ParsedSample struct {
	// Name is the full sample name (histogram series keep their
	// _bucket/_sum/_count suffix).
	Name string
	// Labels are the sample's label pairs ("" keys impossible; empty map
	// for unlabeled samples).
	Labels map[string]string
	// Value is the parsed value (+Inf allowed).
	Value float64
}

// Scrape is a parsed exposition: samples in document order plus the
// families' declared types.
type Scrape struct {
	Samples []ParsedSample
	// Types maps family name -> declared TYPE ("counter", "gauge",
	// "histogram", "untyped").
	Types map[string]string
}

// Value returns the first sample matching name and every given label pair,
// and whether one was found.
func (sc *Scrape) Value(name string, labels ...Label) (float64, bool) {
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if s.Labels[l.Key] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Buckets extracts a histogram's cumulative buckets for the series
// matching the given label pairs (matched in addition to "le"), sorted by
// ascending bound.
func (sc *Scrape) Buckets(family string, labels ...Label) []Bucket {
	var out []Bucket
	for _, s := range sc.Samples {
		if s.Name != family+"_bucket" {
			continue
		}
		ok := true
		for _, l := range labels {
			if s.Labels[l.Key] != l.Value {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		le := s.Labels["le"]
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(+1)
		} else {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		out = append(out, Bucket{UpperBound: bound, CumulativeCount: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UpperBound < out[j].UpperBound })
	return out
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound      float64
	CumulativeCount float64
}

// Quantile estimates the q-quantile (0 <= q <= 1) from cumulative buckets
// by linear interpolation within the bucket containing the target rank —
// the same estimate Prometheus's histogram_quantile produces. It returns
// NaN when the buckets are empty or malformed.
func Quantile(q float64, buckets []Bucket) float64 {
	if len(buckets) < 2 || q < 0 || q > 1 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].CumulativeCount
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	for i, b := range buckets {
		if b.CumulativeCount >= rank {
			if math.IsInf(b.UpperBound, +1) {
				// The target falls in the overflow bucket: the best bounded
				// estimate is the highest finite bound.
				return buckets[len(buckets)-2].UpperBound
			}
			lo, clo := 0.0, 0.0
			if i > 0 {
				lo, clo = buckets[i-1].UpperBound, buckets[i-1].CumulativeCount
			}
			if b.CumulativeCount == clo {
				return b.UpperBound
			}
			return lo + (b.UpperBound-lo)*(rank-clo)/(b.CumulativeCount-clo)
		}
	}
	return buckets[len(buckets)-1].UpperBound
}

// Parse reads a Prometheus text-format exposition, validating the line
// grammar as it goes: HELP/TYPE comments, sample lines with optional label
// sets, numeric values. Unknown comment lines error (the format has only
// HELP and TYPE); blank lines are allowed.
func Parse(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string)}
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := sc.parseComment(line); err != nil {
				return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		sc.Samples = append(sc.Samples, s)
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return sc, nil
}

func (sc *Scrape) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch fields[1] {
	case "HELP":
		if !validName(fields[2]) {
			return fmt.Errorf("HELP for invalid metric name %q", fields[2])
		}
		return nil
	case "TYPE":
		if !validName(fields[2]) {
			return fmt.Errorf("TYPE for invalid metric name %q", fields[2])
		}
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line %q missing type", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q", fields[3])
		}
		if _, dup := sc.Types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %q", fields[2])
		}
		sc.Types[fields[2]] = fields[3]
		return nil
	default:
		return fmt.Errorf("unknown comment %q", line)
	}
}

func parseSample(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return s, fmt.Errorf("malformed label set in %q", line)
			}
			key := strings.TrimSpace(rest[:eq])
			if !validLabelName(key) {
				return s, fmt.Errorf("invalid label name %q", key)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '\\' {
					if rest == "" {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[0] {
					case 'n':
						val.WriteByte('\n')
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					default:
						return s, fmt.Errorf("bad escape \\%c in %q", rest[0], line)
					}
					rest = rest[1:]
					continue
				}
				if c == '"' {
					break
				}
				val.WriteByte(c)
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q in %q", key, line)
			}
			s.Labels[key] = val.String()
			rest = strings.TrimLeft(rest, " ")
			rest = strings.TrimPrefix(rest, ",")
		}
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimSpace(rest)
	// An optional timestamp may follow the value; the registry never emits
	// one, but accept it to stay a real parser of the format.
	valueField := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valueField = rest[:sp]
		if _, err := strconv.ParseInt(strings.TrimSpace(rest[sp+1:]), 10, 64); err != nil {
			return s, fmt.Errorf("malformed timestamp in %q", line)
		}
	}
	v, err := parseFloat(valueField)
	if err != nil {
		return s, fmt.Errorf("malformed value %q in %q", valueField, line)
	}
	s.Value = v
	return s, nil
}

func parseFloat(f string) (float64, error) {
	switch f {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

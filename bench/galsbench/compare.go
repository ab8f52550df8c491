package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// definition is the part of BENCHMARK.json compare reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (definition, error) {
	var d definition
	blob, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(blob, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// loadRecords reads a file of run records, one JSON object a line, as
// galsbench -o writes them.
func loadRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of one workload×metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // a side's spread is wider than the bound
	verdictMissing    = "missing"    // a side has no value
	verdictInfo       = "info"       // an unbounded metric: an extra or a per-layer metric
)

// summary is one side's distribution of a metric.
type summary struct {
	n          int
	q1, q2, q3 float64
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{len(xs), q1, q2, q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return (s.q3 - s.q1) / math.Abs(s.q2) }

// row is one workload×metric comparison.
type row struct {
	workload string
	m        metricDef
	a, b     summary
	change   float64 // b's median against a's, signed so that positive is worse
	verdict  string
}

// verdictOf judges b against a. A side whose spread exceeds the bound
// leaves the pair unresolved, unless every value of b is better than every
// value of a. An unbounded metric is only shown, even when one side lacks
// it (a tail percentile a short run could not support).
func verdictOf(m metricDef, a, b []float64) (change float64, v string) {
	sa, sb := summarize(a), summarize(b)
	change = (sb.q2 - sa.q2) / math.Abs(sa.q2)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case m.Bound == 0:
		return change, verdictInfo
	case len(a) == 0 || len(b) == 0:
		return change, verdictMissing
	}
	if sa.spread() > m.Bound || sb.spread() > m.Bound {
		if allBetter(m, a, b) {
			return change, verdictOK
		}
		return change, verdictUnresolved
	}
	if change > m.Bound {
		return change, verdictWorse
	}
	return change, verdictOK
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(m metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareRecords compares every workload×metric pair: the definition's
// end-to-end metrics and the unbounded extras from untraced records, its
// per-layer metrics from traced ones.
func compareRecords(def definition, a, b []report) []row {
	untraced := func(r report) map[string]float64 { return pick(!r.Trace, r.Metrics) }
	extras := func(r report) map[string]float64 { return pick(!r.Trace, r.Extra) }
	traced := func(r report) map[string]float64 { return pick(r.Trace, r.Metrics) }
	var rows []row
	for _, w := range def.Workloads {
		add := func(m metricDef, from func(report) map[string]float64) {
			va, vb := values(a, w.Name, from, m.Name), values(b, w.Name, from, m.Name)
			if m.Bound == 0 && len(va) == 0 && len(vb) == 0 {
				return // an unbounded metric neither side measured
			}
			change, v := verdictOf(m, va, vb)
			rows = append(rows, row{w.Name, m, summarize(va), summarize(vb), change, v})
		}
		for _, m := range def.EndToEnd {
			add(m, untraced)
		}
		names := map[string]bool{}
		for _, r := range append(append([]report(nil), a...), b...) {
			if r.Workload == w.Name {
				for name := range extras(r) {
					names[name] = true
				}
			}
		}
		for _, name := range sortedKeys(names) {
			// Every extra is a latency, a memory size or the host's
			// slowdown, except the unscaled throughput.
			better := "lower"
			if strings.HasSuffix(name, "_per_s") {
				better = "higher"
			}
			add(metricDef{Name: name, Better: better}, extras)
		}
		for _, m := range def.PerLayer {
			add(m, traced)
		}
	}
	return rows
}

func pick(ok bool, m map[string]float64) map[string]float64 {
	if !ok {
		return nil
	}
	return m
}

// values collects one metric of a workload's records.
func values(rs []report, workload string, from func(report) map[string]float64, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := from(r)[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// digestIssues lists simulated-output digests that disagree: the same
// workload and seed with two digests, within or across the sides.
func digestIssues(a, b []report) []string {
	type key struct {
		workload string
		seed     int64
	}
	seen := map[key]map[string]bool{}
	for _, r := range append(append([]report(nil), a...), b...) {
		k := key{r.Workload, r.Seed}
		if seen[k] == nil {
			seen[k] = map[string]bool{}
		}
		seen[k][r.SimDigest] = true
	}
	issues := map[string]bool{}
	for k, ds := range seen {
		if len(ds) > 1 {
			issues[fmt.Sprintf("%s seed %d has %d different sim_digests", k.workload, k.seed, len(ds))] = true
		}
	}
	return sortedKeys(issues)
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("galsbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with each metric's bound and direction")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: galsbench compare [-benchmark BENCHMARK.json] <a.jsonl> <b.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	def, err := loadDefinition(*benchFile)
	if err == nil && len(def.Workloads) == 0 {
		err = errors.New(*benchFile + " lists no workloads")
	}
	if err != nil {
		fmt.Fprintf(stderr, "galsbench compare: %v\n", err)
		return 2
	}
	var sides [2][]report
	for i := range sides {
		if sides[i], err = loadRecords(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "galsbench compare: %v\n", err)
			return 2
		}
	}
	rows := compareRecords(def, sides[0], sides[1])
	issues := digestIssues(sides[0], sides[1])
	printComparison(stdout, fs.Arg(0), fs.Arg(1), rows, issues)
	for _, r := range rows {
		if r.verdict != verdictOK && r.verdict != verdictInfo {
			return 1
		}
	}
	if len(issues) > 0 {
		return 1
	}
	return 0
}

func printComparison(w io.Writer, aName, bName string, rows []row, issues []string) {
	fmt.Fprintf(w, "A = %s\nB = %s\n", aName, bName)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbetter\tbound\tA median [Q1, Q3] (n, spread)\tB median [Q1, Q3] (n, spread)\tworse by\tverdict")
	side := func(s summary) string {
		if s.n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d, %.1f%%)", s.q2, s.q1, s.q3, s.n, 100*s.spread())
	}
	for _, r := range rows {
		bound := "-"
		if r.m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.m.Bound)
		}
		change := "-"
		if !math.IsNaN(r.change) {
			change = fmt.Sprintf("%+.1f%%", 100*r.change)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.workload, r.m.Name, r.m.Better, bound, side(r.a), side(r.b), change, r.verdict)
	}
	tw.Flush()
	if len(issues) == 0 {
		fmt.Fprintln(w, "sim_digest: no disagreement")
	}
	for _, s := range issues {
		fmt.Fprintf(w, "sim_digest: %s\n", s)
	}
}

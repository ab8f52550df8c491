// Command galsbench is the end-to-end benchmark of the GALS simulator, its
// sweep engine and the galsd service. One invocation runs one workload in
// its own process and prints every metric by name with its unit, the
// workload's simulated-output digest and its failure count; the last line
// of standard output is the result as one JSON object. It exits non-zero on
// any correctness mismatch.
//
//	galsbench --workload run-phase-seq --seed 1 --seconds 30 --trace 0
//	galsbench compare a.jsonl b.jsonl
//
// bench/README.md describes the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("galsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	workdir := fs.String("workdir", ".bench_build", "directory for temporary caches and the span file")
	spans := fs.String("spans", "", "span file of a traced run (default <workdir>/spans-<workload>-<seed>.json)")
	out := fs.String("o", "", "append the run's record to this file as one JSON line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "galsbench: unknown workload %q; want one of %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "galsbench: want --seconds > 0, --trace 0 or 1 and no positional arguments")
		return 2
	}
	p := newParams(*seed, time.Duration(*seconds*float64(time.Second)), *workdir, fullSizes)
	p.traced = *trace == 1

	rep, err := run(def, p)
	if err != nil {
		fmt.Fprintf(stderr, "galsbench: %v\n", err)
		return 1
	}
	if rep.spans != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", def.name, *seed))
		}
		if err := writeJSONFile(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "galsbench: writing spans: %v\n", err)
			return 1
		}
		rep.spansPath = path
	}
	if *out != "" {
		if err := appendRecord(*out, rep); err != nil {
			fmt.Fprintf(stderr, "galsbench: %v\n", err)
			return 1
		}
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "galsbench: %v\n", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "galsbench: check failed: %s\n", e)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport prints every value with its unit and note, the digest and
// the failure count, and last the result line.
func printReport(w io.Writer, rep *report) error {
	kind := "end-to-end"
	want := endToEnd
	if rep.Trace {
		kind, want = "traced per-layer", perLayer
	}
	fmt.Fprintf(w, "galsbench %s: %s seed %d, %.0f s window\n", kind, rep.Workload, rep.Seed, rep.Seconds)
	for _, v := range rep.values {
		printValue(w, v, "")
	}
	for _, v := range rep.extras {
		printValue(w, v, "(info) ")
	}
	if rep.spans != nil {
		fmt.Fprintln(w, "self time by layer, traced window segments:")
		printSelf(w, rep.spans.Window.SelfMSByLayer)
		fmt.Fprintln(w, "self time by layer, layer probe:")
		printSelf(w, rep.spans.Probe.SelfMSByLayer)
		fmt.Fprintf(w, "spans %s\n", rep.spansPath)
	}
	fmt.Fprintf(w, "sim_digest %s\n", rep.SimDigest)
	fmt.Fprintf(w, "failed %d of %d attempted\n", rep.Failed, rep.Attempted)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := map[string]metric{}
	for _, m := range want {
		result[m.Name] = metric{rep.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, result})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printValue(w io.Writer, v value, prefix string) {
	note := ""
	if v.note != "" {
		note = "  (" + v.note + ")"
	}
	fmt.Fprintf(w, "  %s%-34s %14.6g %s%s\n", prefix, v.name, v.v, v.unit, note)
}

func printSelf(w io.Writer, byLayer map[string]float64) {
	var total float64
	var layers []string
	for l, v := range byLayer {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.3f ms %6.1f%%\n", l, byLayer[l], 100*byLayer[l]/total)
	}
}

// appendRecord appends the run's record to path as one JSON line; compare
// reads such files.
func appendRecord(path string, rep *report) error {
	blob, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding the record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening the record file: %w", err)
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing the record: %w", err)
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

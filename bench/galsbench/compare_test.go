package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, tight, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"better", lower, tight, []float64{80, 81, 79, 80, 80}, verdictOK},
		{"worse", lower, tight, []float64{120, 121, 119, 120, 120}, verdictWorse},
		{"worse, higher is better", higher, tight, []float64{80, 81, 79, 80, 80}, verdictWorse},
		{"spread wider than the bound", lower, tight, []float64{70, 100, 130, 90, 110}, verdictUnresolved},
		{"wide but every run better", lower, tight, []float64{50, 70, 90, 60, 80}, verdictOK},
		{"per-layer metric", metricDef{Name: "y", Better: "lower"}, tight, tight, verdictInfo},
		{"no runs on one side", lower, tight, nil, verdictMissing},
		{"unbounded, on one side only", metricDef{Name: "y", Better: "lower"}, nil, tight, verdictInfo},
	} {
		if _, got := verdictOf(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsDigests(t *testing.T) {
	a := []report{
		{Workload: "run-phase-seq", Seed: 1, SimDigest: "d1"},
		{Workload: "run-phase-seq", Seed: 2, SimDigest: "d2"},
		{Workload: "sweep-sync-replay", Seed: 1, SimDigest: "s1"},
	}
	if issues := digestIssues(a, a); len(issues) != 0 {
		t.Errorf("identical sides flagged: %v", issues)
	}
	b := []report{
		{Workload: "run-phase-seq", Seed: 1, SimDigest: "d1"},
		{Workload: "sweep-sync-replay", Seed: 1, SimDigest: "s2"},
	}
	got := digestIssues(a, b)
	if want := []string{"sweep-sync-replay seed 1 has 2 different sim_digests"}; !reflect.DeepEqual(got, want) {
		t.Errorf("digest issues %q, want %q", got, want)
	}
}

// TestCompareCommand runs compare over record files and checks its exit
// code: a regression beyond the bound fails it.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...float64) string {
		var buf bytes.Buffer
		for _, v := range runs {
			buf.WriteString(`{"workload":"w","seed":1,"sim_digest":"d","metrics":{"rate":` + strconv.FormatFloat(v, 'g', -1, 64) +
				`},"extra":{"warm_ms_p99":` + strconv.FormatFloat(1000/v, 'g', -1, 64) + "}}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	def := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(def, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", 100, 101, 99)
	for _, tc := range []struct {
		file string
		want int
	}{
		{write("same.jsonl", 100, 100, 101), 0},
		{write("slow.jsonl", 80, 81, 79), 1},
	} {
		var out, errOut bytes.Buffer
		if got := compareMain([]string{"-benchmark", def, base, tc.file}, &out, &errOut); got != tc.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(tc.file), got, tc.want, out.String(), errOut.String())
		}
		// An unbounded extra is shown but never fails the comparison.
		if !regexp.MustCompile(`warm_ms_p99 .* info`).MatchString(out.String()) {
			t.Errorf("compare %s does not report the extra as info:\n%s", filepath.Base(tc.file), out.String())
		}
	}
}

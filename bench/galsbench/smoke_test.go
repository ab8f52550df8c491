package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every workload so that all of them run in a few seconds.
var smokeSizes = sizes{
	runInsts:         20_000,
	sweepWindow:      2_000,
	sweepStride:      16,
	serviceWindow:    5_000,
	probeInsts:       5_000,
	probeSweepStride: 64,
	probeRequests:    6,
}

// TestSmokeWorkloads runs every workload for about a second with tiny
// windows: each must pass its correctness checks and report every
// end-to-end metric.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(w, newParams(7, time.Second, t.TempDir(), smokeSizes))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v, %d of %d checks failed: %v", rep.Correct, rep.Failed, rep.Attempted, rep.errs)
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}
		})
	}
}

// TestSmokeTracedRun checks that a traced run reports every per-layer
// metric and that its span file covers every layer the metrics name.
func TestSmokeTracedRun(t *testing.T) {
	p := newParams(7, 400*time.Millisecond, t.TempDir(), smokeSizes)
	p.traced = true
	def, _ := workloadByName("service-mixed")
	rep, err := run(def, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%d of %d checks failed: %v", rep.Failed, rep.Attempted, rep.errs)
	}
	for _, m := range perLayer {
		if v, ok := rep.Metrics[m.Name]; !ok || math.IsNaN(v) {
			t.Errorf("%s missing", m.Name)
		}
	}
	for _, layer := range []string{"workload", "cache", "bpred", "core", "sweep", "recstore", "resultcache", "service", "client"} {
		if _, ok := rep.spans.Probe.SelfMSByLayer[layer]; !ok {
			t.Errorf("the probe's spans miss layer %s", layer)
		}
	}
	if _, ok := rep.spans.Window.SelfMSByLayer["service"]; !ok {
		t.Error("the traced window has no galsd spans")
	}
}

// TestResultLine checks the last line of a run's output: exactly the keys
// correct, attempted, failed and metrics, with every metric of the run's
// kind as a value and a unit.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		rep := &report{Workload: "w", Trace: traced, Correct: true, Attempted: 3, Metrics: map[string]float64{}}
		if traced {
			rep.spans = &spanFile{}
		}
		for i, m := range want {
			rep.Metrics[m.Name] = float64(i) + 0.5
		}
		var buf bytes.Buffer
		if err := printReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if keys := sortedKeys(got); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("%d metrics, want %d", len(metrics), len(want))
		}
		for i, m := range want {
			if g := metrics[m.Name]; g.Value != float64(i)+0.5 || g.Unit != m.Unit {
				t.Errorf("%s = %+v, want %v %s", m.Name, g, float64(i)+0.5, m.Unit)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root equal to the catalog this program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	if keys := sortedKeys(top); !reflect.DeepEqual(keys, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("BENCHMARK.json keys %v", keys)
	}
	def, err := loadDefinition("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range def.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var wantWhys []string
	for _, w := range workloads {
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, workloadNames()) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %v differ from the catalog's %v", names, workloadNames())
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalog:\n%+v\n%+v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalog:\n%+v\n%+v", def.PerLayer, perLayer)
	}
}

func TestRunMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "run-phase-seq", "--trace", "2"},
		{"--workload", "run-phase-seq", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := runMain(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// Package experiment regenerates every table and figure of the paper's
// evaluation: the configuration tables (Tables 1-3), the hardware-cost
// estimate (Table 4), the machine parameters (Table 5), the benchmark
// suites (Tables 6-8), the frequency curves (Figures 2-4), the headline
// performance comparison (Figure 6), the configuration distribution
// (Table 9), and the reconfiguration traces (Figure 7).
//
// Each experiment produces a Table: a titled grid of rows with notes
// comparing measured values against the paper's reported ones. Static
// experiments read the timing model; dynamic experiments run the
// simulator, scaled by Options.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gals/internal/metrics"
	"gals/internal/sweep"
)

// Options scale the dynamic experiments.
type Options struct {
	// Window is the instruction window per simulation run.
	Window int64
	// Workers is the sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// FullSyncSpace sweeps all 1,024 synchronous configurations (as the
	// paper did); false prunes to the 320 direct-mapped-I-cache points,
	// which is where the contest is decided, for 3x faster runs.
	FullSyncSpace bool
	// PLLScale scales PLL lock times for the shortened windows.
	PLLScale float64
	// Seed drives PLL lock times and jitter.
	Seed int64
	// JitterFrac enables per-edge clock jitter.
	JitterFrac float64
	// Exec optionally routes the pipeline's simulation cells to a shared
	// cell pool (the service installs its own, so suite work and single
	// runs share one parallelism bound). Result-neutral: excluded
	// from the memo and every cache key.
	Exec *sweep.Pool `json:"-"`
	// Priority orders the pipeline's cells on that pool. Result-neutral.
	Priority int `json:"-"`
	// Ctx bounds the pipeline's simulation work (see sweep.Options.Ctx).
	// Result-neutral: excluded from the memo and every cache key.
	Ctx context.Context `json:"-"`
	// Tracer optionally records span-style timings for the pipeline's
	// stages (see sweep.Options.Tracer). Result-neutral.
	Tracer *metrics.Tracer `json:"-"`
	// CheckpointEvery enables periodic crash-safe checkpointing of the
	// pipeline's sweeps (see sweep.Options.CheckpointEvery). Result-neutral:
	// excluded from the memo and every cache key.
	CheckpointEvery time.Duration `json:"-"`
	// Env is the persistence the pipeline runs against: Env.Cache sits
	// behind the process-local suite memo (a memo miss consults it before
	// simulating, and every computed suite is written back) and behind the
	// sweeps, and Env.Recordings backs their trace pools. Result-neutral:
	// excluded from the memo and every cache key.
	Env sweep.Env `json:"-"`
	// Policy and PolicyParams select the adaptation policy
	// (internal/control registry) of the Phase-Adaptive stages; "" keeps
	// the paper controllers. Result-relevant: part of the suite memo and
	// every cache key.
	Policy       string
	PolicyParams string
	// PolicyBlob is the policy's structured weights artifact (the "learned"
	// policy). Result-relevant like Policy. The "controllers" experiment
	// trains one automatically when it is empty.
	PolicyBlob string
}

// DefaultOptions match the calibration runs recorded in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{Window: 100_000, PLLScale: 0.1, Seed: 42}
}

func (o Options) sweepOptions() sweep.Options {
	so := sweep.Options{
		Window:          o.Window,
		Workers:         o.Workers,
		Seed:            o.Seed,
		JitterFrac:      o.JitterFrac,
		PLLScale:        o.PLLScale,
		Exec:            o.Exec,
		Priority:        o.Priority,
		Ctx:             o.Ctx,
		Tracer:          o.Tracer,
		CheckpointEvery: o.CheckpointEvery,
		Env:             o.Env,
		Policy:          o.Policy,
		PolicyParams:    o.PolicyParams,
	}
	// A blob with no explicit policy selection parameterizes only the
	// controllers experiment's learned column (learnedArtifact); the
	// default paper stages must not inherit an artifact they cannot take.
	if o.Policy != "" {
		so.PolicyBlob = o.PolicyBlob
	}
	return so
}

// Table is one regenerated table or figure (figures are rendered as their
// data series).
type Table struct {
	// ID is the registry key, e.g. "table1" or "figure6".
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the cells.
	Rows [][]string
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a row built from values formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned monospace text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment.
type Runner func(Options) (*Table, error)

var registry = map[string]Runner{}
var order []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = r
	order = append(order, id)
}

// IDs lists the registered experiments in registration (paper) order.
func IDs() []string {
	return append([]string(nil), order...)
}

// Run executes one experiment by ID.
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return r(o)
}

func init() {
	register("table1", func(o Options) (*Table, error) { return Table1(), nil })
	register("figure2", func(o Options) (*Table, error) { return Figure2(), nil })
	register("table2", func(o Options) (*Table, error) { return Table2(), nil })
	register("table3", func(o Options) (*Table, error) { return Table3(), nil })
	register("figure3", func(o Options) (*Table, error) { return Figure3(), nil })
	register("figure4", func(o Options) (*Table, error) { return Figure4(), nil })
	register("table4", func(o Options) (*Table, error) { return Table4(), nil })
	register("table5", func(o Options) (*Table, error) { return Table5(), nil })
	register("table6", func(o Options) (*Table, error) { return Benchmarks("MediaBench"), nil })
	register("table7", func(o Options) (*Table, error) { return Benchmarks("Olden"), nil })
	register("table8", func(o Options) (*Table, error) { return Benchmarks("SPEC2000"), nil })
	register("figure6", func(o Options) (*Table, error) { return Figure6(o) })
	register("table9", func(o Options) (*Table, error) { return Table9(o) })
	register("figure7", func(o Options) (*Table, error) { return Figure7(o) })
	register("policies", func(o Options) (*Table, error) { return PolicyCompare(o) })
	register("controllers", func(o Options) (*Table, error) { return Controllers(o) })
}

package main

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"

	"gals/internal/core"
	"gals/internal/workload"
)

// runBenchmarks span I-cache/branch-heavy (gcc), pointer-chasing with
// memory phases (em3d), phase-rich floating point (apsi) and cache-friendly
// (gsm encode) behaviour.
var runBenchmarks = []string{"gcc", "em3d", "apsi", "gsm encode"}

// runSeedsPerBenchmark is how many PLL seeds each benchmark runs with.
const runSeedsPerBenchmark = 2

// runInput is one single-run input: a benchmark and its configuration.
type runInput struct {
	spec workload.Spec
	cfg  core.Config
}

// runInputs returns the run workloads' inputs in canonical order and the
// seeded rotation over them. The seed sets the PLL seeds and the order; the
// benchmarks and configuration stay fixed.
func runInputs(seed int64) ([]runInput, []int) {
	var in []runInput
	for bi, spec := range mustSpecs(runBenchmarks) {
		for k := 0; k < runSeedsPerBenchmark; k++ {
			in = append(in, runInput{spec, phaseConfig(subSeed(seed, saltRun, bi*runSeedsPerBenchmark+k))})
		}
	}
	order := rand.New(rand.NewSource(subSeed(seed, saltOrder, 0))).Perm(len(in))
	return in, order
}

// phaseConfig is the Phase-Adaptive machine with the paper's controllers at
// the scaled-down PLL lock time the repository's windows use — the
// configuration galsd builds for a default phase request.
func phaseConfig(seed int64) core.Config {
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	cfg.Seed = seed
	return cfg
}

func mustSpecs(names []string) []workload.Spec {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			panic("galsbench: unknown benchmark " + n)
		}
		out[i] = s
	}
	return out
}

// runBench is run-phase-seq: one caller runs the inputs in rotation, each
// a single live-generated run at degree 1.
type runBench struct {
	inputs []runInput
	order  []int
	n      int64
	seed   int64

	mu    sync.Mutex
	first []*core.Result // each input's first result
}

func newRunBench(p params) *runBench {
	in, order := runInputs(p.seed)
	return &runBench{inputs: in, order: order, n: p.runInsts, seed: p.seed, first: make([]*core.Result, len(in))}
}

func (b *runBench) clients() int { return 1 }

func (b *runBench) op(o *opCtx) opResult {
	i := b.order[o.seq%int64(len(b.order))]
	in := b.inputs[i]
	id := o.tr.begin(0, "core", "RunWorkloadParallel", o.req)
	res := core.RunWorkloadParallel(in.spec, in.cfg, b.n, 1)
	o.tr.end(id)
	return opResult{class: in.spec.Name, cells: 1, insts: res.Stats.Instructions, isRun: true, err: b.keep(i, res)}
}

// keep records input i's first result and checks every later one against
// it: the simulator is deterministic.
func (b *runBench) keep(i int, res *core.Result) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first[i] == nil {
		b.first[i] = res
		return nil
	}
	if !reflect.DeepEqual(res, b.first[i]) {
		return errors.New("run of " + b.inputs[i].spec.Name + " differs from its first run")
	}
	return nil
}

// runCheckSample is how many inputs verify re-runs at degree 2.
const runCheckSample = 4

// verify runs any input the window missed, so the digest covers all of
// them, and checks a seeded sample of inputs run by the stage-parallel
// machine at degree 2 against the sequential runs.
func (b *runBench) verify(chk *checks) {
	for i, in := range b.inputs {
		if b.first[i] == nil {
			chk.note(b.keep(i, core.RunWorkloadParallel(in.spec, in.cfg, b.n, 1)))
		}
	}
	rng := rand.New(rand.NewSource(subSeed(b.seed, saltCheck, 0)))
	for _, i := range rng.Perm(len(b.inputs))[:runCheckSample] {
		in := b.inputs[i]
		var err error
		if par := core.RunWorkloadParallel(in.spec, in.cfg, b.n, 2); !reflect.DeepEqual(par, b.first[i]) {
			err = errors.New("degree-2 run of " + in.spec.Name + " differs from the sequential run")
		}
		chk.note(err)
	}
}

func (b *runBench) digest() string {
	outs := make([]simOutput, len(b.first))
	for i, r := range b.first {
		outs[i] = simOutput{r.TimeFS, r.Stats}
	}
	return digestOf(outs)
}

func (b *runBench) close() {}

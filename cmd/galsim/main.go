// Command galsim runs one benchmark on one machine configuration and
// prints run statistics.
//
// Usage:
//
//	galsim -bench gcc -mode phase -n 100000
//	galsim -bench em3d -mode sync -icache 64k1W -dcache 0 -iq 16 -fq 16
//	galsim -bench art -mode phase -trace
//	galsim -bench apsi -mode phase -policy interval -policy-params interval=7500
//	galsim -train-policy weights.json -n 30000
//	galsim -bench apsi -mode phase -policy learned -policy-blob weights.json
//	galsim -list-policies
//	galsim -bench gcc -mode phase -telemetry gcc.json
//	galsim -bench art -mode phase -telemetry art.csv -telemetry-plot
//
// Modes: sync (fully synchronous), program (Program-Adaptive MCD with the
// given fixed configuration), phase (Phase-Adaptive MCD with the on-line
// controllers enabled).
//
// -train-policy runs the learned-policy training pipeline (imitation of the
// paper's controllers over recorded phase runs of the whole suite at the
// given -n window and -seed) and writes the weights artifact to the given
// file; -policy-blob feeds such an artifact to a blob-requiring policy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/learn"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark run name (see -list)")
		mode    = flag.String("mode", "phase", "machine mode: sync, program, phase")
		n       = flag.Int64("n", 100_000, "instruction window length")
		icache  = flag.String("icache", "", "I-cache config: sync mode: Table 3 name (e.g. 64k1W); adaptive: 16k1W|32k2W|48k3W|64k4W")
		dcache  = flag.Int("dcache", 0, "D/L2 config index 0..3 (Table 1)")
		iq      = flag.Int("iq", 16, "integer issue queue size (16/32/48/64)")
		fq      = flag.Int("fq", 16, "FP issue queue size (16/32/48/64)")
		seed    = flag.Int64("seed", 42, "PLL/jitter seed")
		jitter  = flag.Float64("jitter", 0, "clock jitter fraction (e.g. 0.01)")
		pll     = flag.Float64("pllscale", 0.1, "PLL lock-time scale for shortened windows")
		doTrace = flag.Bool("trace", false, "print reconfiguration events (phase mode)")
		list    = flag.Bool("list", false, "list benchmark runs and exit")
		policy  = flag.String("policy", "", "adaptation policy for phase mode (see -list-policies); empty = paper")
		polPar  = flag.String("policy-params", "", "policy parameters as key=value[,key=value...]")
		polBlob = flag.String("policy-blob", "", "weights-artifact file for blob-requiring policies (e.g. learned; see -train-policy)")
		trainTo = flag.String("train-policy", "", "run the learned-policy training pipeline at the -n window and write the weights artifact to this file, then exit")
		listPol = flag.Bool("list-policies", false, "list adaptation policies and exit")
		telFile = flag.String("telemetry", "", "record run telemetry (per-interval adaptation series) and write it to this file: .csv writes a flat samples+events table, anything else the JSON artifact")
		telPlot = flag.Bool("telemetry-plot", false, "record run telemetry and print a Figure-7-style ASCII adaptation timeline (combinable with -telemetry)")
	)
	flag.Parse()

	if *listPol {
		for _, in := range control.Infos() {
			blob := ""
			if in.RequiresBlob {
				blob = " (requires a weights artifact: -policy-blob)"
			}
			fmt.Printf("%-10s %s%s\n", in.Name, in.Description, blob)
			for _, p := range in.Params {
				fmt.Printf("           %s (default %g): %s\n", p.Name, p.Default, p.Description)
			}
		}
		return
	}

	if *list {
		for _, s := range workload.Suite() {
			fmt.Printf("%-18s %-12s window %s\n", s.Name, s.Suite, s.Window)
		}
		return
	}

	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "galsim: -n must be a positive instruction window, got %d\n", *n)
		os.Exit(2)
	}
	if !(*jitter >= 0 && *jitter <= 0.05) { // negated forms reject NaN too
		fmt.Fprintf(os.Stderr, "galsim: -jitter must be in [0, 0.05], got %g\n", *jitter)
		os.Exit(2)
	}
	if !(*pll >= 0) {
		fmt.Fprintf(os.Stderr, "galsim: -pllscale must be >= 0, got %g\n", *pll)
		os.Exit(2)
	}

	if *trainTo != "" {
		model, st, err := learn.Train(sweep.Env{}, learn.TrainOptions{
			Window: *n, Seed: *seed, PLLScale: *pll, JitterFrac: *jitter,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "galsim:", err)
			os.Exit(1)
		}
		blob, err := model.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "galsim:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*trainTo, []byte(blob), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "galsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trained %s (digest %s) from %d phase runs at window %d\n",
			*trainTo, control.BlobDigest(blob)[:12], st.Benchmarks, *n)
		for h := 0; h < learn.NumHeads; h++ {
			fmt.Printf("  %-7s %6d samples, imitation accuracy %.1f%%\n",
				learn.HeadNames[h], st.Samples[h], 100*st.Accuracy[h])
		}
		if st.Samples[learn.HeadICache] == 0 {
			fmt.Printf("  note: no cache-head samples — train with -n >= %d (the accounting interval) so cache decisions are observed\n",
				control.PaperCacheInterval)
		}
		return
	}

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "galsim: unknown benchmark %q (try -list)\n", *bench)
		os.Exit(1)
	}

	cfg, err := core.ParseMachine(*mode, *icache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsim:", err)
		os.Exit(1)
	}
	cfg.DCache = timing.DCacheConfig(*dcache)
	cfg.IntIQ = timing.IQSize(*iq)
	cfg.FPIQ = timing.IQSize(*fq)
	cfg.Seed = *seed
	cfg.JitterFrac = *jitter
	cfg.PLLScale = *pll
	cfg.RecordTrace = *doTrace
	cfg.Policy = *policy
	cfg.PolicyParams = *polPar
	if *polBlob != "" {
		blob, err := os.ReadFile(*polBlob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galsim:", err)
			os.Exit(1)
		}
		cfg.PolicyBlob = string(blob)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "galsim:", err)
		os.Exit(1)
	}

	var tel *core.Telemetry
	if *telFile != "" || *telPlot {
		// A nil sampler makes this a plain run.
		tel = core.NewTelemetry(core.DefaultTelemetryCap)
	}
	res, err := core.NewMachine(spec, cfg).RunWith(context.Background(), *n, core.RunOptions{Telemetry: tel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsim:", err)
		os.Exit(1)
	}
	printResult(res)
	if *doTrace {
		fmt.Println("\nreconfiguration trace:")
		for _, e := range res.Stats.ReconfigEvents {
			fmt.Printf("  @%9d instr  %-7s -> %s\n", e.Instr, e.Kind, e.Config)
		}
	}
	if *telFile != "" {
		if err := writeTelemetry(*telFile, tel); err != nil {
			fmt.Fprintln(os.Stderr, "galsim:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntelemetry   %s (%d samples, %d events)\n", *telFile, len(tel.Samples), len(tel.Events))
	}
	if *telPlot {
		fmt.Println()
		plotTelemetry(os.Stdout, tel)
	}
}

func printResult(r *core.Result) {
	s := r.Stats
	fmt.Printf("workload   %s\nconfig     %s\n", r.Workload, r.Config.Label())
	fmt.Printf("instrs     %d\n", s.Instructions)
	fmt.Printf("time       %.3f us\n", float64(r.TimeFS)/float64(timing.FemtosPerMicro))
	fmt.Printf("throughput %.3f instr/ns\n", r.IPnsec())
	if s.Branches > 0 {
		fmt.Printf("branches   %d  mispredicts %d (%.2f%%)\n",
			s.Branches, s.Mispredicts, 100*float64(s.Mispredicts)/float64(s.Branches))
	}
	fmt.Printf("loads      %d  stores %d  fp %d\n", s.Loads, s.Stores, s.FPOps)
	fmt.Printf("L1I        A %d  B %d  miss %d\n", s.ICacheA, s.ICacheB, s.ICacheMiss)
	fmt.Printf("L1D        A %d  B %d  miss %d\n", s.DCacheA, s.DCacheB, s.DCacheMiss)
	fmt.Printf("L2         A %d  B %d  miss %d  (mem %d)\n", s.L2A, s.L2B, s.L2Miss, s.MemAccesses)
	if s.Reconfigs > 0 {
		fmt.Printf("reconfigs  %d\n", s.Reconfigs)
	}
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                  # every static table/figure (fast)
//	experiments -run figure6     # one experiment
//	experiments -all             # everything, including the sweeps
//	experiments -all -full -window 100000 > results.txt
//	experiments -run policies    # frozen-vs-paper adaptation benefit
//	experiments -run controllers # paper vs feedback vs learned, per benchmark
//	experiments -run figure6 -policy interval -policy-params interval=7500
//	experiments -run figure6 -policy learned -policy-blob weights.json
//	experiments -run figure6 -window 60000 -cache dir -memstats  # peak heap/RSS
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gals"
)

// static experiments need no simulation and always run quickly.
var static = map[string]bool{
	"table1": true, "table2": true, "table3": true, "table4": true,
	"table5": true, "table6": true, "table7": true, "table8": true,
	"figure2": true, "figure3": true, "figure4": true,
}

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs (default: all static)")
		all     = flag.Bool("all", false, "run everything including the design-space sweeps")
		window  = flag.Int64("window", 100_000, "instruction window per simulation run")
		workers = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		full    = flag.Bool("full", false, "sweep all 1,024 synchronous configurations (paper scale)")
		pll     = flag.Float64("pllscale", 0.1, "PLL lock-time scale")
		cache   = flag.String("cache", "", "persistent result cache directory (repeated invocations become incremental)")
		policy  = flag.String("policy", "", "adaptation policy for the Phase-Adaptive stages (paper, interval, frozen, feedback, learned); empty = paper")
		polPar  = flag.String("policy-params", "", "policy parameters as key=value[,key=value...]")
		polBlob = flag.String("policy-blob", "", "weights-artifact file for blob-requiring policies (galsim -train-policy writes one; the controllers experiment trains its own when omitted)")
		mem     = flag.Bool("memstats", false, "report peak heap and peak RSS after the experiments")
	)
	flag.Parse()

	if *window <= 0 {
		fmt.Fprintf(os.Stderr, "experiments: -window must be positive, got %d\n", *window)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if !(*pll >= 0) { // negated form rejects NaN too
		fmt.Fprintf(os.Stderr, "experiments: -pllscale must be >= 0, got %g\n", *pll)
		os.Exit(2)
	}
	blob := ""
	if *polBlob != "" {
		raw, err := os.ReadFile(*polBlob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		blob = string(raw)
	}
	if *policy != "" || *polPar != "" {
		if err := gals.ValidatePolicySelection(*policy, *polPar, blob); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	} else if blob != "" {
		// A bare -policy-blob feeds the controllers experiment's learned
		// column (the Phase-Adaptive stages of other experiments keep the
		// default paper policy), so validate it as a learned artifact.
		if err := gals.ValidatePolicySelection("learned", "", blob); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}
	opts := gals.DefaultExperimentOptions()
	if *cache != "" {
		env, err := gals.OpenCache(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.Env = env
	}
	opts.Window = *window
	opts.Workers = *workers
	opts.FullSyncSpace = *full
	opts.PLLScale = *pll
	opts.Policy = *policy
	opts.PolicyParams = *polPar
	opts.PolicyBlob = blob

	var ids []string
	switch {
	case *run != "":
		ids = strings.Split(*run, ",")
	case *all:
		ids = gals.Experiments()
	default:
		for _, id := range gals.Experiments() {
			if static[id] {
				ids = append(ids, id)
			}
		}
	}

	if *mem {
		defer startHeapSampler()()
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		t, err := gals.RunExperiment(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		if d := time.Since(start); d > time.Second {
			fmt.Printf("(%s took %.1fs)\n", id, d.Seconds())
		}
		fmt.Println()
	}
}

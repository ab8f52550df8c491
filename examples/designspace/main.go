// Designspace explores the adaptive MCD configuration space for one
// benchmark — the per-application exhaustive search that defines the
// paper's Program-Adaptive mode (Section 4) — and reports how each
// structure's sizing trades frequency against hit rates and parallelism.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gals"
)

func main() {
	bench := flag.String("bench", "em3d", "benchmark to explore")
	window := flag.Int64("window", 60_000, "instruction window per configuration")
	flag.Parse()

	spec, err := gals.Workload(*bench)
	if err != nil {
		log.Fatal(err)
	}

	// Record the benchmark's deterministic stream once; every configuration
	// below replays the same slab (bit-identical to live generation).
	rec, err := gals.RecordWorkload(spec, *window)
	if err != nil {
		log.Fatal(err)
	}
	run := func(cfg gals.Config) (*gals.Result, error) {
		return gals.RunWith(context.Background(), rec.Replay(), cfg, *window, gals.RunOptions{})
	}

	// Baseline: the best-overall fully synchronous machine.
	syncRes, err := run(gals.DefaultSynchronous())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on the best synchronous machine: %.2f us\n\n", spec.Name, syncRes.Seconds()*1e6)

	// One-dimensional slices through the adaptive space, holding the other
	// structures at the base configuration.
	fmt.Println("D-cache/L2 slice (i$=16k1W, iq=16, fq=16):")
	for dc := gals.DCacheConfig(0); dc < 4; dc++ {
		cfg := gals.DefaultProgramAdaptive()
		cfg.DCache = dc
		r, err := run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  d$=%-16v time %8.2f us  improvement %+6.1f%%\n",
			dc, r.Seconds()*1e6, gals.Improvement(syncRes.TimeFS, r.TimeFS))
	}

	fmt.Println("\nI-cache slice (d$=32k1W, iq=16, fq=16):")
	for ic := gals.ICacheConfig(0); ic < 4; ic++ {
		cfg := gals.DefaultProgramAdaptive()
		cfg.ICache = ic
		r, err := run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  i$=%-6v time %8.2f us  improvement %+6.1f%%\n",
			ic, r.Seconds()*1e6, gals.Improvement(syncRes.TimeFS, r.TimeFS))
	}

	fmt.Println("\nInteger issue queue slice (caches at base):")
	for _, iq := range []gals.IQSize{16, 32, 48, 64} {
		cfg := gals.DefaultProgramAdaptive()
		cfg.IntIQ = iq
		r, err := run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iq=%-3d time %8.2f us  improvement %+6.1f%%\n",
			iq, r.Seconds()*1e6, gals.Improvement(syncRes.TimeFS, r.TimeFS))
	}

	// Full 256-point search: the Program-Adaptive selection.
	best, t, err := gals.ProgramAdaptiveSearch(spec, gals.SweepOptions{Window: *window})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nProgram-Adaptive selection (256-point exhaustive search):\n  %s\n", best.Label())
	fmt.Printf("  time %8.2f us  improvement %+6.1f%% over best synchronous\n",
		float64(t)/1e9, gals.Improvement(syncRes.TimeFS, t))
}

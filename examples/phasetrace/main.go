// Phasetrace reproduces the behaviour of paper Figure 7: it runs the
// Phase-Adaptive machine on apsi (periodic data working-set phases) and on
// art (periodic ILP phases) and renders each structure's configuration
// over time as an ASCII step plot, read from the run's telemetry.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gals"
)

const window = 150_000

func main() {
	trace("apsi", "dcache", []string{"32k1W/256k1W", "64k2W/512k2W", "128k4W/1024k4W", "256k8W/2048k8W"})
	fmt.Println()
	trace("art", "int-iq", []string{"16", "32", "48", "64"})
}

func trace(bench, kind string, labels []string) {
	spec, err := gals.Workload(bench)
	if err != nil {
		log.Fatal(err)
	}
	tel := gals.NewTelemetry()
	_, err = gals.RunWith(context.Background(), spec.NewTrace(), gals.DefaultPhaseAdaptive(), window,
		gals.RunOptions{Telemetry: tel})
	if err != nil {
		log.Fatal(err)
	}

	// Build the configuration-index timeline from the reconfiguration
	// events (index 0 at start).
	const buckets = 72
	timeline := make([]int, buckets)
	level := 0
	events := tel.Events
	next := 0
	for b := 0; b < buckets; b++ {
		instr := int64(b) * window / buckets
		for next < len(events) && events[next].Instr <= instr {
			if events[next].Structure == kind {
				level = events[next].To
			}
			next++
		}
		timeline[b] = level
	}

	fmt.Printf("%s: %s configuration over %d instructions (Phase-Adaptive)\n", bench, kind, window)
	for lvl := len(labels) - 1; lvl >= 0; lvl-- {
		var b strings.Builder
		for _, v := range timeline {
			if v == lvl {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		fmt.Printf("%16s |%s|\n", labels[lvl], b.String())
	}
	fmt.Printf("%16s  0%*s%d\n", "instructions", buckets-1, "", window)
	fmt.Printf("%d %s reconfigurations in the window\n", tel.EventsByStructure()[kind], kind)
}

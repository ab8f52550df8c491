package workload

import (
	"strings"
	"testing"

	"gals/internal/isa"
)

// benchTraceWindow is the span of each benchmark's stream BenchmarkTraceNext
// times: the trace restarts there, so every b.N covers the same phases and
// pays NewTrace's seeding once per window.
const benchTraceWindow = 250_000

// BenchmarkTraceNext times the generate stage alone: ns/op is one live
// instruction from (*Trace).Next, for the four benchmarks galsbench's
// per-layer table reports.
func BenchmarkTraceNext(b *testing.B) {
	for _, name := range []string{"gcc", "em3d", "apsi", "gsm encode"} {
		spec, ok := ByName(name)
		if !ok {
			b.Fatalf("missing benchmark %q", name)
		}
		b.Run(strings.ReplaceAll(name, " ", "-"), func(b *testing.B) {
			tr := spec.NewTrace()
			var in isa.Inst
			for i := range b.N {
				if i > 0 && i%benchTraceWindow == 0 {
					tr = spec.NewTrace()
				}
				tr.Next(&in)
			}
		})
	}
}

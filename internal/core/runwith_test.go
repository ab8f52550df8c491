package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestParityRunWithMatrix crosses RunWith's execution knobs — a
// cancellable context and telemetry — over a live trace and a streamed
// replay against the plain Run loop: each combination must return Run's
// Result, every telemetry-on combination the same series, and the
// uncancellable call must allocate exactly what Run does (it is the same
// loop).
func TestParityRunWithMatrix(t *testing.T) {
	spec := bench(t, "apsi")
	cfg := parityCfg()
	const n = 25_000
	want := NewMachine(spec, cfg).Run(n)
	rec := spec.Record(n)
	NewMachineSource(rec.Replay(), cfg).Run(n) // the recording's first run, fused
	var series *Telemetry
	for _, streamed := range []bool{false, true} {
		for _, cancellable := range []bool{false, true} {
			for _, withTel := range []bool{false, true} {
				var ctx context.Context
				if cancellable {
					c, cancel := context.WithCancel(context.Background())
					defer cancel()
					ctx = c
				}
				var tel *Telemetry
				if withTel {
					tel = NewTelemetry(0)
				}
				label := fmt.Sprintf("streamed=%v cancellable=%v telemetry=%v", streamed, cancellable, withTel)
				m := NewMachine(spec, cfg)
				if streamed {
					m = NewMachineSource(rec.Replay(), cfg)
				}
				got, err := m.RunWith(ctx, n, RunOptions{Telemetry: tel})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if (m.fs != nil) != streamed {
					t.Fatalf("%s: run streamed = %v", label, m.fs != nil)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: diverged from Run", label)
				}
				if tel == nil {
					continue
				}
				if series == nil {
					series = tel
				} else if !reflect.DeepEqual(series.Samples, tel.Samples) || !reflect.DeepEqual(series.Events, tel.Events) {
					t.Fatalf("%s: telemetry series differs from the live run's", label)
				}
			}
		}
	}

	const small = 5_000
	plain := testing.AllocsPerRun(3, func() { NewMachine(spec, cfg).Run(small) })
	with := testing.AllocsPerRun(3, func() { NewMachine(spec, cfg).RunWith(nil, small, RunOptions{}) })
	if plain != with {
		t.Fatalf("RunWith(nil, n, RunOptions{}) allocates %v per run, Run %v", with, plain)
	}
}

// TestParityRunWithContext pins cancellation: a never-cancelled context
// is bit-identical to Run, a cancelled one returns before running, and a
// run cancelled mid-way returns ctx's error promptly.
func TestParityRunWithContext(t *testing.T) {
	spec := bench(t, "art")
	cfg := parityCfg()
	const n = 30_000

	seq := NewMachine(spec, cfg).Run(n)
	res, err := NewMachine(spec, cfg).RunWith(context.Background(), n, RunOptions{})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if !reflect.DeepEqual(seq, res) {
		t.Fatalf("RunWith diverged from Run")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewMachine(spec, cfg).RunWith(ctx, n, RunOptions{}); err != context.Canceled {
		t.Fatalf("cancelled RunWith: got %v, want context.Canceled", err)
	}

	// Mid-run cancellation, after the second quantum of a run far longer
	// than the test: it must come back with ctx's error.
	mid := &pollCtx{Context: context.Background(), polls: 3, done: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := NewMachine(spec, cfg).RunWith(mid, 50_000_000, RunOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("mid-run cancel: run did not return")
	}
}

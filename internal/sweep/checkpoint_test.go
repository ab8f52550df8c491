package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gals/internal/core"
	"gals/internal/resultcache"
	"gals/internal/timing"
	"gals/internal/workload"
)

// openCkptCache opens a fresh on-disk persistent store for one test and
// returns it alongside its directory.
func openCkptCache(t *testing.T) (*resultcache.Cache, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir
}

// withCache returns o persisting to c.
func withCache(o Options, c resultcache.Store) Options {
	o.Env.Cache = c
	return o
}

// cancelAfterCells returns a context that an observer on p cancels once n
// cells have finished executing: those n cells completed (and delivered)
// before the cancel, so an interrupted sweep's flushed checkpoint carries
// real progress.
func cancelAfterCells(t *testing.T, p *Pool, n int) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var seen atomic.Int64
	p.SetObserver(func(time.Duration) {
		if seen.Add(1) == int64(n) {
			cancel()
		}
	})
	return ctx
}

// TestCheckpointResumeBitIdenticalSummary is the crash-safety contract for
// MeasureSummary: a sweep cancelled mid-flight flushes a progress
// checkpoint, the rerun restores it (skipping the completed cells), and the
// resumed summary is byte-identical — same JSON encoding, including
// tie-breaks — to a sweep that was never interrupted.
func TestCheckpointResumeBitIdenticalSummary(t *testing.T) {
	specs := workload.Suite()[:3]
	cfgs := AdaptiveSpace()[:8]

	t.Run("full-scores", func(t *testing.T) {
		o := Options{Window: 2_000, Workers: 2}

		// Cold baseline in its own store: never interrupted.
		ref, err := resultcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want, err := MeasureSummary(specs, cfgs, withCache(o, ref))
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		c, _ := openCkptCache(t)
		o = withCache(o, c)
		p := NewPool(2, 1024)
		defer p.Close()
		oc := o
		oc.Exec = p
		oc.Ctx = cancelAfterCells(t, p, 5)
		if _, err := MeasureSummary(specs, cfgs, oc); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted MeasureSummary = %v, want context.Canceled", err)
		}
		ckKey := o.WithDefaults().measureKey("sweepckpt", specs, cfgs)
		if !c.Has(ckKey) {
			t.Fatal("no checkpoint flushed by the cancelled sweep")
		}

		resumesBefore, cellsBefore := CheckpointsResumed(), ResumedCells()
		got, err := MeasureSummary(specs, cfgs, o)
		if err != nil {
			t.Fatalf("resumed MeasureSummary: %v", err)
		}
		if CheckpointsResumed() != resumesBefore+1 {
			t.Fatal("rerun did not restore the checkpoint")
		}
		if ResumedCells() <= cellsBefore {
			t.Fatal("resume skipped zero completed cells")
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("resumed summary not bit-identical to uninterrupted run:\n%s\n%s", gotJSON, wantJSON)
		}
		if c.Has(ckKey) {
			t.Fatal("checkpoint not garbage-collected after the summary landed")
		}
		// The persisted summary must serve the same bytes on the next call.
		var cached Summary
		if !c.Load(o.WithDefaults().measureKey("sweepsum", specs, cfgs), &cached) {
			t.Fatal("summary was not persisted after the resume")
		}
		cachedJSON, _ := json.Marshal(&cached)
		if !bytes.Equal(cachedJSON, wantJSON) {
			t.Fatal("persisted summary bytes differ from the uninterrupted run's")
		}
	})
}

// TestCheckpointResumePhaseBitIdentical is the same contract for
// MeasurePhase: the per-benchmark Phase-Adaptive results after a
// kill-and-resume equal a never-interrupted run's exactly.
func TestCheckpointResumePhaseBitIdentical(t *testing.T) {
	specs := workload.Suite()[:4]
	o := Options{Window: 2_000, Workers: 2}

	ref, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := MeasurePhase(specs, withCache(o, ref))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := openCkptCache(t)
	o = withCache(o, c)
	p := NewPool(2, 1024)
	defer p.Close()
	oc := o
	oc.Exec = p
	oc.Ctx = cancelAfterCells(t, p, 2)
	if _, err := MeasurePhase(specs, oc); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted MeasurePhase = %v, want context.Canceled", err)
	}
	ckKey := o.WithDefaults().measureKey("phaseckpt", specs, nil)
	if !c.Has(ckKey) {
		t.Fatal("no checkpoint flushed by the cancelled phase run")
	}

	resumesBefore, cellsBefore := CheckpointsResumed(), ResumedCells()
	got, err := MeasurePhase(specs, o)
	if err != nil {
		t.Fatalf("resumed MeasurePhase: %v", err)
	}
	if CheckpointsResumed() != resumesBefore+1 || ResumedCells() <= cellsBefore {
		t.Fatal("rerun did not resume from the checkpoint")
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed phase results not bit-identical to an uninterrupted run's")
	}
	if c.Has(ckKey) {
		t.Fatal("phase checkpoint not garbage-collected after the results landed")
	}
}

// TestCheckpointResumeCorruptFallsBackCold pins the degradation contract: a
// damaged or stale checkpoint is a miss, never a wrong answer — the sweep
// restarts cold and still produces the uninterrupted result.
func TestCheckpointResumeCorruptFallsBackCold(t *testing.T) {
	specs := workload.Suite()[:2]
	cfgs := AdaptiveSpace()[:6]
	o := Options{Window: 1_500, Workers: 2}

	ref, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := MeasureSummary(specs, cfgs, withCache(o, ref))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	corrupt := map[string]func(t *testing.T, c *resultcache.Cache, dir, ckKey string){
		"garbage": func(t *testing.T, c *resultcache.Cache, dir, ckKey string) {
			blobs, _ := filepath.Glob(filepath.Join(dir, "sweepckpt", "*", "*.json"))
			if len(blobs) != 1 {
				t.Fatalf("found %d checkpoint blobs, want 1", len(blobs))
			}
			os.WriteFile(blobs[0], []byte("not json at all {{{"), 0o644)
		},
		"truncated": func(t *testing.T, c *resultcache.Cache, dir, ckKey string) {
			blobs, _ := filepath.Glob(filepath.Join(dir, "sweepckpt", "*", "*.json"))
			if len(blobs) != 1 {
				t.Fatalf("found %d checkpoint blobs, want 1", len(blobs))
			}
			fi, _ := os.Stat(blobs[0])
			os.Truncate(blobs[0], fi.Size()/2)
		},
		"stale-version": func(t *testing.T, c *resultcache.Cache, dir, ckKey string) {
			var ck sweepCheckpoint
			if !c.Load(ckKey, &ck) {
				t.Fatal("checkpoint unreadable before corruption")
			}
			ck.Version = ckptVersion + 1
			c.Store(ckKey, &ck)
		},
	}
	for name, damage := range corrupt {
		t.Run(name, func(t *testing.T) {
			c, dir := openCkptCache(t)
			o := withCache(o, c)
			p := NewPool(2, 1024)
			defer p.Close()
			oc := o
			oc.Exec = p
			oc.Ctx = cancelAfterCells(t, p, 4)
			if _, err := MeasureSummary(specs, cfgs, oc); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted MeasureSummary = %v, want context.Canceled", err)
			}
			ckKey := o.WithDefaults().measureKey("sweepckpt", specs, cfgs)
			damage(t, c, dir, ckKey)

			resumesBefore := CheckpointsResumed()
			computesBefore := MeasureComputations()
			got, err := MeasureSummary(specs, cfgs, o)
			if err != nil {
				t.Fatalf("re-sweep after corruption: %v", err)
			}
			if CheckpointsResumed() != resumesBefore {
				t.Fatal("a corrupt checkpoint was resumed")
			}
			if MeasureComputations() != computesBefore+1 {
				t.Fatal("re-sweep did not recompute")
			}
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatal("cold re-sweep after corruption diverged from the reference")
			}
		})
	}
}

// TestCheckpointResumeConcurrentSweepsShareKey runs two identical sweeps
// concurrently with checkpointing on every delivery: both race writes to
// the one shared checkpoint entry, and under -race this pins that the
// writer, the accumulator snapshots and the store's atomic rename publish
// only consistent states — both callers get the reference result.
func TestCheckpointResumeConcurrentSweepsShareKey(t *testing.T) {
	specs := workload.Suite()[:2]
	cfgs := AdaptiveSpace()[:4]
	o := Options{Window: 1_500, Workers: 2, CheckpointEvery: time.Nanosecond}

	ref, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := MeasureSummary(specs, cfgs, withCache(Options{Window: 1_500, Workers: 2}, ref))
	if err != nil {
		t.Fatal(err)
	}

	c, _ := openCkptCache(t)
	o = withCache(o, c)
	var wg sync.WaitGroup
	results := make([]*Summary, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = MeasureSummary(specs, cfgs, o)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent sweep %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("concurrent sweep %d diverged from the reference", i)
		}
	}
	if CheckpointsWritten() == 0 {
		t.Fatal("per-delivery checkpointing wrote nothing")
	}
}

// TestScrubCheckpointsReapsOnlyOrphans: the startup GC removes checkpoints
// whose parent summary already exists (a crash between the summary write
// and the checkpoint removal) and keeps live resume state.
func TestScrubCheckpointsReapsOnlyOrphans(t *testing.T) {
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Live: the parent summary has not landed yet.
	liveParent := resultcache.Key("sweepsum", "unfinished")
	liveKey := resultcache.Key("sweepckpt", "unfinished")
	c.Store(liveKey, &sweepCheckpoint{Version: ckptVersion, SummaryKey: liveParent})

	// Orphans: their parents exist, sweep and phase flavors both.
	sumParent := resultcache.Key("sweepsum", "finished")
	c.Store(sumParent, &Summary{NumSpecs: 1, NumCfgs: 1, Best: -1, PerApp: []int{-1}, PerAppTimes: []timing.FS{0}})
	orphanSweep := resultcache.Key("sweepckpt", "finished")
	c.Store(orphanSweep, &sweepCheckpoint{Version: ckptVersion, SummaryKey: sumParent})

	phaseParent := resultcache.Key("phase", "finished")
	c.Store(phaseParent, []int{1})
	orphanPhase := resultcache.Key("phaseckpt", "finished")
	c.Store(orphanPhase, &phaseCheckpoint{Version: ckptVersion, SummaryKey: phaseParent})

	if n := ScrubCheckpoints(c); n != 2 {
		t.Fatalf("ScrubCheckpoints reaped %d, want 2", n)
	}
	if !c.Has(liveKey) {
		t.Fatal("live checkpoint (unfinished parent) was reaped")
	}
	if c.Has(orphanSweep) || c.Has(orphanPhase) {
		t.Fatal("orphaned checkpoint survived the scrub")
	}
	// A second pass finds nothing.
	if n := ScrubCheckpoints(c); n != 0 {
		t.Fatalf("second ScrubCheckpoints reaped %d, want 0", n)
	}
}

// parentCheckpoint is a "sweepckpt" blob as an earlier release wrote it
// (2 benchmarks x 3 configurations, cancelled after three cells): config 1
// folded, config 2 half done, plus the since-dropped best_score field. It is
// also the fuzz corpus's "parent-format" seed.
const parentCheckpoint = `{"version":1,"summary_key":"sweepsum/e0cac3578d528cbb2cdbe0ceac4bd0a3804e48666770ccb8d2152258dde903a1","num_specs":2,"num_cfgs":3,"done":[28],"partial":{"2":[4474578240,0]},"sum":{"NumSpecs":2,"NumCfgs":3,"Best":1,"BestTimes":[4474578240,4524860748],"PerApp":[1,1],"PerAppTimes":[4474578240,4524860748],"Scores":[0,44.45453057588904,0],"Invalid":[false,false,false]},"best_score":44.45453057588904}`

// TestCheckpointRestoreRejectsBadShape: a checkpoint whose summary decodes
// but names a configuration outside the sweep, or whose slices do not fit
// its dimensions, is a miss; an earlier release's well-formed checkpoint
// still restores.
func TestCheckpointRestoreRejectsBadShape(t *testing.T) {
	load := func() *sweepCheckpoint {
		var ck sweepCheckpoint
		if err := json.Unmarshal([]byte(parentCheckpoint), &ck); err != nil {
			t.Fatal(err)
		}
		return &ck
	}
	if load().restore(2, 3) == nil {
		t.Fatal("an earlier release's checkpoint no longer restores")
	}
	for name, damage := range badShapes {
		ck := load()
		damage(ck.Sum)
		if ck.restore(2, 3) != nil {
			t.Errorf("%s: damaged checkpoint restored", name)
		}
	}
}

// TestCheckpointRestoreRejectsStrayBits: a done bitmap with a bit set past
// the last cell is a miss, since a resume adds the bitmap's popcount to
// the resumed-cell counter.
func TestCheckpointRestoreRejectsStrayBits(t *testing.T) {
	var ck sweepCheckpoint
	if err := json.Unmarshal([]byte(parentCheckpoint), &ck); err != nil {
		t.Fatal(err)
	}
	ck.Done[0] |= 1 << 50 // the sweep has 2x3 cells
	if ck.restore(2, 3) != nil {
		t.Fatal("checkpoint with a done bit past the last cell restored")
	}
}

// FuzzSweepCheckpoint feeds arbitrary bytes through the decode and restore
// path a resuming MeasureSummary takes, for a request of nspecs benchmarks
// by ncfgs configurations. Restore must never panic, and a checkpoint it
// accepts must fold the cells it leaves open into a summary that passes
// the shape check a loaded summary must pass, with exactly one done bit
// per cell. Seeds, real checkpoints among them, are in
// testdata/fuzz/FuzzSweepCheckpoint.
func FuzzSweepCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte, nspecs, ncfgs uint8) {
		var ck sweepCheckpoint
		if json.Unmarshal(blob, &ck) != nil {
			return
		}
		ns, nc := int(nspecs), int(ncfgs)
		acc := ck.restore(ns, nc)
		if acc == nil {
			return
		}
		for ci := 0; ci < nc; ci++ {
			for si := 0; si < ns; si++ {
				if !bitSet(acc.done, ci*ns+si) {
					// Zeros among the times exercise disqualification.
					acc.add(ci, si, timing.FS((ci*31+si*17)%5))
				}
			}
		}
		if !summaryShapeOK(acc.sum, ns, nc, nc > 0) {
			t.Fatalf("accepted checkpoint sealed to a malformed summary: %+v", acc.sum)
		}
		if n := popcount(acc.done); n != ns*nc {
			t.Fatalf("accepted checkpoint sealed with %d done bits, want %d", n, ns*nc)
		}
	})
}

// FuzzPhaseCheckpoint feeds arbitrary bytes through the decode and restore
// path a resuming MeasurePhase takes, for a request of nspecs benchmarks.
// Restore must never panic, and a checkpoint it accepts must, once its
// open benchmarks are delivered, hold a result for every benchmark: the
// list MeasurePhase persists and returns has no nil entry. Seeds, real
// checkpoints among them, are in testdata/fuzz/FuzzPhaseCheckpoint.
func FuzzPhaseCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte, nspecs uint8) {
		var ck phaseCheckpoint
		if json.Unmarshal(blob, &ck) != nil {
			return
		}
		ns := int(nspecs)
		acc := ck.restore(ns)
		if acc == nil {
			return
		}
		for si := 0; si < ns; si++ {
			if !bitSet(acc.done, si) {
				acc.add(si, &core.Result{TimeFS: timing.FS(si + 1)})
			}
		}
		if len(acc.out) != ns || slices.Contains(acc.out, nil) || popcount(acc.done) != ns {
			t.Fatalf("accepted checkpoint sealed to %d results (%d done), want %d without nil", len(acc.out), popcount(acc.done), ns)
		}
	})
}

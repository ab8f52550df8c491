// Sweep checkpointing: the crash-safety layer under MeasureSummary and
// MeasurePhase. A long sweep periodically persists its streaming
// accumulator plus a completed-cell bitmap to the result cache (kinds
// "sweepckpt"/"phaseckpt", keyed by the same measureKey as the final
// artifact), so a cancelled, SIGTERMed or SIGKILLed run resumes from the
// last checkpoint instead of restarting cold: completed cells are skipped,
// the restored accumulator absorbs the rest, and the final summary is
// bit-identical to an uninterrupted run — the fold is commutative with
// exact tie-breaks, so any subset of completed work is a valid prefix.
//
// Checkpoints ride the cache's atomic temp+rename writes (a crash mid-
// checkpoint leaves the previous one intact) and are garbage-collected once
// the parent artifact lands: persist removes a sweep's own on success, and
// ScrubCheckpoints reaps orphans whose parent already exists (a crash after
// the summary write but before the removal).
package sweep

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/core"
	"gals/internal/resultcache"
	"gals/internal/timing"
	"gals/internal/workload"
)

// ckptVersion is baked into every checkpoint blob; a mismatch (an old
// process's layout) is treated as a miss and the sweep restarts cold.
const ckptVersion = 1

var (
	ckptWrites   atomic.Int64
	ckptResumes  atomic.Int64
	resumedCells atomic.Int64
)

// CheckpointsWritten reports how many sweep/phase checkpoints this process
// has persisted (periodic plus final cancellation flushes).
func CheckpointsWritten() int64 { return ckptWrites.Load() }

// CheckpointsResumed reports how many MeasureSummary/MeasurePhase calls
// restored a valid checkpoint instead of starting cold.
func CheckpointsResumed() int64 { return ckptResumes.Load() }

// ResumedCells reports the total number of already-completed cells those
// resumes skipped — the work a crash did not forfeit.
func ResumedCells() int64 { return resumedCells.Load() }

// done-cell bitmaps: bit ci*nspecs+si marks cell (config ci, benchmark si).

func bitWords(n int) int       { return (n + 63) / 64 }
func setBit(b []uint64, i int) { b[i/64] |= 1 << (i % 64) }
func bitSet(b []uint64, i int) bool {
	return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0
}
func popcount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// sweepCheckpoint is the persisted "sweepckpt" blob: a summaryAcc's full
// state mid-sweep. SummaryKey names the parent "sweepsum" entry so a
// startup scrub can tell a live checkpoint from an orphaned one without
// recomputing any key.
type sweepCheckpoint struct {
	Version    int    `json:"version"`
	SummaryKey string `json:"summary_key"`
	NumSpecs   int    `json:"num_specs"`
	NumCfgs    int    `json:"num_cfgs"`
	// Done is the completed-cell bitmap (bit ci*NumSpecs+si).
	Done []uint64 `json:"done"`
	// Partial holds row buffers of configs with some but not all cells
	// complete; fully-done configs are already folded into Sum.
	Partial map[int][]timing.FS `json:"partial,omitempty"`
	// Sum is the Summary folded over the fully-done configs so far.
	Sum *Summary `json:"sum"`
}

// checkpoint snapshots the accumulator into a persistable blob. Every
// slice is deep-copied under the lock: the store marshals outside it, and
// the accumulator keeps mutating.
func (a *summaryAcc) checkpoint(sumKey string) *sweepCheckpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	ck := &sweepCheckpoint{
		Version: ckptVersion, SummaryKey: sumKey,
		NumSpecs: a.specs, NumCfgs: len(a.left),
		Done: append([]uint64(nil), a.done...),
	}
	if len(a.rows) > 0 {
		ck.Partial = make(map[int][]timing.FS, len(a.rows))
		for ci, row := range a.rows {
			ck.Partial[ci] = append([]timing.FS(nil), row...)
		}
	}
	s := *a.sum
	s.PerApp = append([]int(nil), a.sum.PerApp...)
	s.PerAppTimes = append([]timing.FS(nil), a.sum.PerAppTimes...)
	s.BestTimes = append([]timing.FS(nil), a.sum.BestTimes...)
	s.Scores = append([]float64(nil), a.sum.Scores...)
	s.Invalid = append([]bool(nil), a.sum.Invalid...)
	ck.Sum = &s
	return ck
}

// restore rebuilds a summaryAcc from a loaded checkpoint, or returns nil
// when the blob doesn't match the request (stale version, different
// dimensions) or is internally inconsistent, a bit past the last cell
// included (the resumed-cell count reads the bitmap) — every nil here
// degrades to a cold sweep, never a wrong answer.
func (ck *sweepCheckpoint) restore(nspecs, ncfgs int) *summaryAcc {
	if ck.Version != ckptVersion || ck.NumSpecs != nspecs || ck.NumCfgs != ncfgs {
		return nil
	}
	if len(ck.Done) != bitWords(nspecs*ncfgs) || ck.Sum == nil {
		return nil
	}
	a := newSummaryAcc(nspecs, ncfgs)
	a.done = append([]uint64(nil), ck.Done...)
	folded, total := false, 0
	for ci := 0; ci < ncfgs; ci++ {
		n := 0
		for si := 0; si < nspecs; si++ {
			if bitSet(a.done, ci*nspecs+si) {
				n++
			}
		}
		a.left[ci] = nspecs - n
		folded = folded || n == nspecs
		total += n
	}
	if popcount(a.done) != total || !summaryShapeOK(ck.Sum, nspecs, ncfgs, folded) {
		return nil
	}
	a.sum = ck.Sum
	for ci, row := range ck.Partial {
		if ci < 0 || ci >= ncfgs || len(row) != nspecs ||
			a.left[ci] == 0 || a.left[ci] == nspecs {
			return nil
		}
		a.rows[ci] = append([]timing.FS(nil), row...)
	}
	// Every partially-done config must carry its row buffer, or its folded
	// score would silently lose the pre-crash cells.
	for ci := range a.left {
		if a.left[ci] > 0 && a.left[ci] < nspecs && a.rows[ci] == nil {
			return nil
		}
	}
	return a
}

// phaseCheckpoint is the persisted "phaseckpt" blob: MeasurePhase's
// completed results so far. Results are immutable once delivered, so the
// blob holds them directly.
type phaseCheckpoint struct {
	Version    int            `json:"version"`
	SummaryKey string         `json:"summary_key"`
	NumSpecs   int            `json:"num_specs"`
	Done       []uint64       `json:"done"`
	Out        []*core.Result `json:"out"`
}

// restore rebuilds a phaseAcc from a loaded checkpoint, or returns nil
// when the blob doesn't match the request, marks a benchmark done without
// its result (or the reverse) or sets a bit past the last benchmark (the
// resumed-cell count reads the bitmap): a cold run, never a wrong answer.
func (ck *phaseCheckpoint) restore(nspecs int) *phaseAcc {
	if ck.Version != ckptVersion || ck.NumSpecs != nspecs ||
		len(ck.Done) != bitWords(nspecs) || len(ck.Out) != nspecs {
		return nil
	}
	n := 0
	for i, res := range ck.Out {
		if bitSet(ck.Done, i) != (res != nil) {
			return nil
		}
		if res != nil {
			n++
		}
	}
	if popcount(ck.Done) != n {
		return nil
	}
	// The accumulator marks its own copy of the bitmap, which the resume
	// skip filter reads concurrently.
	return &phaseAcc{out: ck.Out, done: append([]uint64(nil), ck.Done...)}
}

// phaseAcc collects MeasurePhase's per-benchmark results under a lock (the
// bare out[i] writes of the pre-checkpoint code would race a snapshot).
type phaseAcc struct {
	mu   sync.Mutex
	out  []*core.Result
	done []uint64
}

func newPhaseAcc(nspecs int) *phaseAcc {
	return &phaseAcc{out: make([]*core.Result, nspecs), done: make([]uint64, bitWords(nspecs))}
}

func (a *phaseAcc) add(i int, res *core.Result) {
	a.mu.Lock()
	a.out[i] = res
	setBit(a.done, i)
	a.mu.Unlock()
}

// checkpoint snapshots the accumulator. The out slice is copied; the
// pointed-to Results are immutable after delivery, so they are shared.
func (a *phaseAcc) checkpoint(sumKey string) *phaseCheckpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &phaseCheckpoint{
		Version: ckptVersion, SummaryKey: sumKey, NumSpecs: len(a.out),
		Done: append([]uint64(nil), a.done...),
		Out:  append([]*core.Result(nil), a.out...),
	}
}

// runResumable runs the cells through runCells under the sweep's
// checkpoint at ckKey. done is a restored checkpoint's completed-cell
// bitmap (bit ci*len(specs)+si; nil when starting cold), and the cells it
// marks are skipped. Every delivery may write a periodic checkpoint of
// snap(), and a run that fails after delivering anything flushes a final
// one regardless of the interval, so a cancelled or shed sweep resumes
// warm instead of cold; a run that delivered nothing new leaves any prior
// checkpoint as-is.
func runResumable(specs []workload.Spec, cfgs []core.Config, o Options, ckKey string, done []uint64,
	snap func() any, sink func(ci, si int, res *core.Result)) error {
	var skip func(ci, si int) bool
	if done != nil {
		ckptResumes.Add(1)
		resumedCells.Add(int64(popcount(done)))
		skip = func(ci, si int) bool { return bitSet(done, ci*len(specs)+si) }
	}
	store := o.Env.Cache
	w := newCkptWriter(store, ckKey, o.CheckpointEvery, snap)
	var progressed atomic.Bool
	err := runCells(specs, cfgs, o, skip, func(ci, si int, res *core.Result) {
		sink(ci, si, res)
		progressed.Store(true)
		w.maybe()
	})
	if err != nil && progressed.Load() && store != nil {
		store.Store(ckKey, snap())
		ckptWrites.Add(1)
	}
	return err
}

// persist writes a computed sweep artifact under key and garbage-collects
// its now superseded checkpoint. Stores without a deletion side (plain
// map-backed test stores) just keep the orphan; ScrubCheckpoints reaps
// those on restart. Without a persistent store it does nothing.
func (o Options) persist(kind, key, ckKey string, v any) {
	store := o.Env.Cache
	if store == nil {
		return
	}
	span := o.Tracer.Start("persist", kind)
	store.Store(key, v)
	span.End()
	if r, ok := store.(resultcache.Remover); ok {
		r.Remove(ckKey)
	}
}

// ckptWriter throttles periodic checkpoint writes from the cell sink: at
// most one write per interval, taken by whichever worker's delivery trips
// the deadline (CAS-guarded, so the others keep simulating). Blocking one
// worker for one blob write per interval is the entire overhead of
// checkpointing an uninterrupted sweep.
type ckptWriter struct {
	store resultcache.Store
	key   string
	every time.Duration
	snap  func() any

	last    atomic.Int64 // unixnano of the last write
	writing atomic.Bool
}

func newCkptWriter(store resultcache.Store, key string, every time.Duration, snap func() any) *ckptWriter {
	if store == nil || every <= 0 {
		return nil
	}
	w := &ckptWriter{store: store, key: key, every: every, snap: snap}
	w.last.Store(time.Now().UnixNano())
	return w
}

// maybe writes a checkpoint when the interval has elapsed; a nil writer
// (checkpointing off) costs one comparison.
func (w *ckptWriter) maybe() {
	if w == nil {
		return
	}
	if time.Now().UnixNano()-w.last.Load() < int64(w.every) {
		return
	}
	if !w.writing.CompareAndSwap(false, true) {
		return
	}
	w.store.Store(w.key, w.snap())
	ckptWrites.Add(1)
	w.last.Store(time.Now().UnixNano())
	w.writing.Store(false)
}

// ScrubCheckpoints garbage-collects checkpoints whose parent summary
// already exists — debris from a crash that landed the final artifact but
// died before removing its checkpoint. It returns the number reaped.
// Checkpoints whose parent is still missing are live resume state and are
// kept. galsd's -scrub runs this after the cache and recording scrubs.
func ScrubCheckpoints(c *resultcache.Cache) int {
	n := 0
	for _, kind := range []string{"sweepckpt", "phaseckpt"} {
		for _, k := range c.Keys(kind) {
			var env struct {
				SummaryKey string `json:"summary_key"`
			}
			if !c.Load(k, &env) || env.SummaryKey == "" {
				continue
			}
			if c.Has(env.SummaryKey) {
				c.Remove(k)
				n++
			}
		}
	}
	return n
}

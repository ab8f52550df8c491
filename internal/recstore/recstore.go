// Package recstore persists recorded benchmark instruction streams as
// compact binary slabs and replays them via mmap, so paper-scale simulation
// windows (millions of instructions x 40 benchmarks) cost file-backed pages
// instead of heap. It is the disk tier under workload.Pool: a backed pool
// asks the store for each benchmark's recording, the store serves an
// existing slab (one mmap per process at a time, shared by every pool and
// replay, reference counted so retiring pools return their address space —
// see Release) or records it exactly once per directory — a lock file
// serializes recorders across processes, so concurrent sweeps on one cache
// directory never duplicate the generation work.
//
// Layout: <dir>/<hh>/<hash>.rec, where <hash> is the sha-256 of the format
// version, the window and the canonical spec JSON, and <hh> its first two
// hex chars (directory fanout). Each file is a 64-byte header (magic,
// version, instruction size, count, spec digest) followed by
// count x workload.EncodedInstSize payload bytes, written via a temp file
// and an atomic rename. Invalidation is by construction: any change to the
// encoding or the workload generator bumps formatVersion, orphaning old
// files rather than replaying stale streams; a corrupt or truncated file is
// deleted and re-recorded, never served.
package recstore

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/faultinject"
	"gals/internal/flight"
	"gals/internal/workload"
)

// formatVersion is baked into file names and headers. Bump it whenever the
// wire encoding or the deterministic workload generator changes: old slabs
// then stop matching instead of replaying a stale stream.
const formatVersion = 1

const (
	headerSize = 64
	magic      = "GALSREC\x00"

	// lockPoll is the waiters' check interval for a recording in progress;
	// lockStale is how old an un-refreshed lock must be before waiters
	// treat its holder as crashed (holders refresh every lockStale/4).
	lockPoll  = 50 * time.Millisecond
	lockStale = 10 * time.Minute
)

// Subdir is the conventional recording-store location inside a shared
// cache directory — the single definition behind gals.OpenCache and the
// service, so every entry point shares one slab corpus.
const Subdir = "recordings"

// ErrCorrupt marks a slab that exists on disk but cannot be served: wrong
// size (a truncated write from a crashed recorder), a stale or foreign
// header, or an undecodable payload. The store never surfaces it from
// Recording — a corrupt slab is deleted and re-recorded — but load errors
// wrap it so Stats.Corrupt can count the events and tests can assert the
// degradation path with errors.Is.
var ErrCorrupt = errors.New("recstore: corrupt slab")

// Stats are a store's lifetime counters.
type Stats struct {
	// Mapped counts recordings served from existing files; Recorded counts
	// recordings generated and written by this process.
	Mapped, Recorded int64
	// Rerecorded counts files that were deleted and regenerated for any
	// reason (corruption, stale format, injected faults).
	Rerecorded int64
	// Corrupt counts slab loads rejected with ErrCorrupt specifically —
	// the operator-facing "disk is damaging my slabs" signal, a subset of
	// Rerecorded's triggers.
	Corrupt int64
	// Released counts slab references dropped to zero (Release): the
	// mapping, when one existed, was unmapped and the cache entry forgotten.
	Released int64
}

// Store is an on-disk recording store. Create with Open. It implements
// workload.Backing and workload.Releaser; all methods are safe for
// concurrent use.
//
// Slab lifetime is reference counted: every successful Recording call takes
// one reference, every Release drops one, and the mapping is unmapped (the
// entry forgotten) when the count reaches zero — so a retired trace pool
// (workload.Pool.Retire) returns its windows' address space instead of
// accumulating mappings across a multi-window corpus for the process
// lifetime. A later Recording for the same slab simply remaps it.
type Store struct {
	dir string

	slabs flight.Group[string, *slab]
	mu    sync.Mutex // guards every slab's refs and released

	mapped, recorded, rerecorded, corrupt, released atomic.Int64
}

// slab is one acquired recording and its references.
type slab struct {
	rec *workload.Recording
	// mapping is the full mmap (header included) backing rec, nil when the
	// slab was heap-read instead.
	mapping []byte

	refs int
	// released marks a slab whose last reference dropped: it is unmapped
	// and forgotten, and a caller that acquired it just before must remap.
	released bool
}

// Open creates (if needed) and returns a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("recstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Stats returns the store's counters so far.
func (st *Store) Stats() Stats {
	return Stats{
		Mapped:     st.mapped.Load(),
		Recorded:   st.recorded.Load(),
		Rerecorded: st.rerecorded.Load(),
		Corrupt:    st.corrupt.Load(),
		Released:   st.released.Load(),
	}
}

// Live returns the number of slab entries currently cached (each holding a
// mapping or heap slab with a non-zero reference count, or mid-acquire).
// Chaos tests assert it reaches zero after every pool retires.
func (st *Store) Live() int { return st.slabs.Len() }

// specDigest canonicalizes a spec for identity checks. Spec is plain data,
// so its JSON encoding is stable.
func specDigest(s workload.Spec) ([32]byte, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return [32]byte{}, fmt.Errorf("recstore: unmarshalable spec: %w", err)
	}
	return sha256.Sum256(blob), nil
}

// key derives the file-name hash for (spec, window).
func key(digest [32]byte, window int64) string {
	h := sha256.New()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[4:], workload.EncodedInstSize)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(window))
	h.Write(hdr[:])
	h.Write(digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

// ScrubStats reports one Scrub pass.
type ScrubStats struct {
	// TempFiles and LockFiles count crashed-recorder debris removed.
	TempFiles int `json:"temp_files"`
	LockFiles int `json:"lock_files"`
	// BadSlabs counts .rec files deleted for failing cheap validation
	// (size/magic/version mismatch — a truncated write or stale format);
	// BadSlabBytes their total size.
	BadSlabs     int   `json:"bad_slabs"`
	BadSlabBytes int64 `json:"bad_slab_bytes"`
}

// Scrub is the startup-recovery pass: it assumes the caller has exclusive
// use of the directory (galsd runs it before serving), so every temp and
// lock file is crashed-recorder debris and is removed regardless of age —
// unlike the stale-age rule live waiters apply. Slab files failing cheap
// header validation (wrong size for their declared window, foreign magic,
// stale format) are deleted too; they would be delete-and-re-recorded on
// first touch anyway, but reaping them up front reclaims the disk and
// surfaces the count to the operator.
func (st *Store) Scrub() (ScrubStats, error) {
	sc := ScrubStats{}
	err := filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		switch {
		case strings.HasSuffix(name, ".lock"):
			if os.Remove(path) == nil {
				sc.LockFiles++
			}
		case strings.HasPrefix(name, "."):
			if os.Remove(path) == nil {
				sc.TempFiles++
			}
		case strings.HasSuffix(name, ".rec"):
			size, ok := slabShapeOK(path)
			if ok {
				return nil
			}
			if os.Remove(path) == nil {
				sc.BadSlabs++
				sc.BadSlabBytes += size
				st.rerecorded.Add(1)
			}
		}
		return nil
	})
	if err != nil {
		return sc, fmt.Errorf("recstore: %w", err)
	}
	return sc, nil
}

// slabShapeOK is the spec-independent subset of load's validation: header
// magic, format version, instruction size, and that the file length matches
// the window the header declares. It cannot check the spec digest (Scrub
// has no spec in hand), so a shape-valid slab with a wrong digest is still
// caught — and re-recorded — by load on first use.
func slabShapeOK(p string) (size int64, ok bool) {
	f, err := os.Open(p)
	if err != nil {
		return 0, true // unreadable is not provably corrupt; leave it to load
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, true
	}
	size = fi.Size()
	var hdr [headerSize]byte
	if size < headerSize {
		return size, false
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return size, true
	}
	if string(hdr[0:8]) != magic ||
		binary.LittleEndian.Uint32(hdr[8:]) != formatVersion ||
		binary.LittleEndian.Uint32(hdr[12:]) != workload.EncodedInstSize {
		return size, false
	}
	window := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if window <= 0 || size != headerSize+window*workload.EncodedInstSize {
		return size, false
	}
	return size, true
}

// Recording returns the benchmark's recording of exactly window
// instructions, mapping an existing slab or recording one (once per
// directory, across processes). The returned recording is shared: repeated
// calls for the same (spec, window) return the same mapping, and each call
// takes one slab reference, returned by Release. It implements
// workload.Backing.
func (st *Store) Recording(s workload.Spec, window int64) (*workload.Recording, error) {
	return st.RecordingContext(nil, s, window)
}

// RecordingContext is Recording bounded by ctx: a slab that has to be
// generated observes cancellation while the stream is written (the temp
// file is removed, nothing lands in the store), and a waiter on another
// caller's in-progress acquisition — in this process or another — stops
// waiting when ctx expires. A cancelled acquisition never poisons the
// (spec, window): it is forgotten, and a waiter whose ctx is still live, or
// the next request, records afresh. It implements
// workload.ContextBacking; a nil ctx is Recording.
func (st *Store) RecordingContext(ctx context.Context, s workload.Spec, window int64) (*workload.Recording, error) {
	if window <= 0 {
		return nil, fmt.Errorf("recstore: non-positive window %d", window)
	}
	digest, err := specDigest(s)
	if err != nil {
		return nil, err
	}
	k := key(digest, window)

	for {
		sl, _, err := st.slabs.Do(ctx, k, func(ctx context.Context) (*slab, error) {
			rec, mapping, err := st.acquire(ctx, s, window, digest, k)
			if err != nil {
				return nil, err
			}
			return &slab{rec: rec, mapping: mapping}, nil
		})
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		if sl.released {
			// Raced with a Release that dropped the last reference between
			// the acquisition and now: remap through a fresh slab.
			st.mu.Unlock()
			continue
		}
		sl.refs++
		rec := sl.rec
		st.mu.Unlock()
		return rec, nil
	}
}

// Release returns one Recording reference for (spec, window). When the last
// reference drops, the slab's mapping (if any) is unmapped and the cache
// entry forgotten — the caller must guarantee that no replay created from
// any of the released references is still live. Unbalanced or unknown
// releases are ignored. It implements workload.Releaser, which is how a
// retiring trace pool returns its slabs.
func (st *Store) Release(s workload.Spec, window int64) {
	digest, err := specDigest(s)
	if err != nil {
		return
	}
	k := key(digest, window)

	st.mu.Lock()
	sl, ok := st.slabs.Peek(k)
	if !ok || sl.refs == 0 {
		st.mu.Unlock()
		return
	}
	if sl.refs--; sl.refs > 0 {
		st.mu.Unlock()
		return
	}
	st.slabs.Forget(k)
	sl.released = true
	mapping := sl.mapping
	sl.mapping = nil
	sl.rec = nil
	st.mu.Unlock()

	if mapping != nil {
		unmapSlab(mapping)
	}
	st.released.Add(1)
}

// path maps a key hash to its slab file.
func (st *Store) path(k string) string {
	return filepath.Join(st.dir, k[:2], k+".rec")
}

// acquire loads or records one slab, returning the recording and the full
// mmap backing it (nil when the slab was heap-read).
func (st *Store) acquire(ctx context.Context, s workload.Spec, window int64, digest [32]byte, k string) (*workload.Recording, []byte, error) {
	p := st.path(k)
	if rec, mapping, err := st.load(s, window, digest, p); err == nil {
		st.mapped.Add(1)
		// Refresh the slab's mtime so a size-capped LRU prune
		// (resultcache.Prune over the shared cache root) evicts cold slabs
		// before ones this process is actively replaying.
		now := time.Now()
		os.Chtimes(p, now, now)
		return rec, mapping, nil
	} else if !os.IsNotExist(err) {
		// Anything on disk that is not a valid slab — truncated write from
		// a crashed recorder, bit rot, a stale format — is deleted and
		// regenerated rather than replayed.
		if errors.Is(err, ErrCorrupt) {
			st.corrupt.Add(1)
		}
		os.Remove(p)
		st.rerecorded.Add(1)
	}
	if err := st.record(ctx, s, window, digest, p); err != nil {
		return nil, nil, err
	}
	st.recorded.Add(1)
	rec, mapping, err := st.load(s, window, digest, p)
	if err != nil {
		return nil, nil, fmt.Errorf("recstore: freshly recorded slab unreadable: %w", err)
	}
	return rec, mapping, nil
}

// load validates and maps an existing slab file.
func (st *Store) load(s workload.Spec, window int64, digest [32]byte, p string) (*workload.Recording, []byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// An injected open fault is indistinguishable from an unreadable slab:
	// surface it as corruption so the delete-and-re-record path runs.
	if ferr := faultinject.Err(faultinject.RecstoreOpen); ferr != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, ferr)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	want := headerSize + window*workload.EncodedInstSize
	if fi.Size() != want {
		return nil, nil, fmt.Errorf("%w: %s is %d bytes, want %d", ErrCorrupt, p, fi.Size(), want)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, nil, err
	}
	if string(hdr[0:8]) != magic ||
		binary.LittleEndian.Uint32(hdr[8:]) != formatVersion ||
		binary.LittleEndian.Uint32(hdr[12:]) != workload.EncodedInstSize ||
		int64(binary.LittleEndian.Uint64(hdr[16:])) != window ||
		[32]byte(hdr[24:56]) != digest {
		return nil, nil, fmt.Errorf("%w: %s has a stale or foreign header", ErrCorrupt, p)
	}
	var mapping []byte
	raw, err := mapSlab(f, int(fi.Size()))
	if err == nil {
		if ferr := faultinject.Err(faultinject.RecstoreMap); ferr != nil {
			unmapSlab(raw)
			raw, err = nil, ferr
		}
	}
	if err != nil {
		// No mmap on this platform (or the map failed): fall back to a
		// plain read — correct, just heap-resident.
		blob, rerr := os.ReadFile(p)
		if rerr != nil {
			return nil, nil, rerr
		}
		raw = blob
	} else {
		mapping = raw
	}
	rec, err := workload.RecordingFromEncoded(s, raw[headerSize:])
	if err != nil {
		if mapping != nil {
			unmapSlab(mapping)
		}
		return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return rec, mapping, nil
}

// record generates the slab under a cross-process lock: the first recorder
// streams the trace to a temp file and renames it into place; others wait
// for the rename instead of regenerating. A recorder that crashes leaves
// the lock behind — waiters treat a lock older than lockStale as abandoned
// and record themselves (the rename is idempotent: every recorder writes
// identical bytes).
func (st *Store) record(ctx context.Context, s workload.Spec, window int64, digest [32]byte, p string) error {
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("recstore: %w", err)
	}
	lock := p + ".lock"
	lf, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		lf.Close()
		defer os.Remove(lock)
		// Keep the lock fresh while recording: a paper-scale slab can take
		// longer than lockStale to generate, and waiters must not conclude
		// the lock is abandoned while the stream is still being written.
		stop := make(chan struct{})
		refreshed := make(chan struct{})
		go func() {
			defer close(refreshed)
			t := time.NewTicker(lockStale / 4)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					now := time.Now()
					os.Chtimes(lock, now, now)
				}
			}
		}()
		err := st.write(ctx, s, window, digest, p)
		close(stop)
		<-refreshed
		return err
	}
	if !os.IsExist(err) {
		return fmt.Errorf("recstore: %w", err)
	}
	// Another process is recording: wait for the slab to land.
	for {
		if _, err := os.Stat(p); err == nil {
			return nil
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		fi, err := os.Stat(lock)
		if err != nil || time.Since(fi.ModTime()) > lockStale {
			// Lock released without a slab, or abandoned: record ourselves.
			return st.write(ctx, s, window, digest, p)
		}
		time.Sleep(lockPoll)
	}
}

// write streams the slab to a temp file and renames it into place. A ctx
// cancellation mid-stream aborts the write and removes the temp file.
func (st *Store) write(ctx context.Context, s workload.Spec, window int64, digest [32]byte, p string) error {
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("recstore: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], workload.EncodedInstSize)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(window))
	copy(hdr[24:56], digest[:])

	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("recstore: %w", err)
	}
	if err := s.RecordToContext(ctx, w, window); err != nil {
		if ctx != nil && errors.Is(err, ctx.Err()) {
			return err
		}
		return fmt.Errorf("recstore: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("recstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return fmt.Errorf("recstore: %w", err)
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, p); err != nil {
		os.Remove(name)
		return fmt.Errorf("recstore: %w", err)
	}
	return nil
}

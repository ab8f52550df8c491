// Package resultcache is a persistent, content-addressed store for
// simulation results. The paper burned ~300 CPU-months sweeping the GALS
// design space; every layer above the simulator (the suite memo, the sweep
// matrices, the service's single runs) keys its outputs by a hash of the
// normalized request plus a schema version, so identical work is computed
// once per cache directory — across processes, not just within one.
//
// Layout: a key has the form "<kind>/<64 hex sha-256 chars>" and is stored
// at <dir>/<kind>/<hh>/<hash>.json, where <hh> is the first two hash chars
// (fanout, so directories stay small). Blobs are plain JSON, written via a
// temp file and an atomic rename, so concurrent writers of the same key are
// safe and a crash can never leave a truncated entry behind.
//
// Invalidation is by construction: Key mixes SchemaVersion into every hash,
// so bumping it (whenever the simulator's timing semantics change) orphans
// every old entry rather than serving stale results. Orphans are plain
// files; `rm -r <dir>` is always safe.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gals/internal/faultinject"
)

// SchemaVersion is mixed into every cache key. Bump it whenever a change
// anywhere in the simulator can alter results for an identical request
// (timing model, workload generation, controller behaviour, ...): old
// entries then simply stop matching instead of being served stale.
//
// v2: the adaptation-policy layer (internal/control) added Policy and
// PolicyParams to core.Config and the sweep/experiment/service request
// shapes. The "paper" default is pinned bit-identical to v1 behaviour by
// parity tests, but every key payload's encoding changed, so v1 entries are
// orphaned wholesale rather than left to alias by accident.
//
// v3: the closed-loop/learned adaptation subsystem added blob policy
// parameters (core.Config.PolicyBlob, keyed by canonical digest), the
// "feedback" and "learned" policies, the "policyblob" sidecar kind for
// trained weights, and the machine's dynamic decision cadence (the
// controller's CacheInterval is re-read after every decision). The "paper"
// default remains pinned bit-identical by parity tests; every key payload's
// encoding changed again, so v2 entries are orphaned wholesale.
//
// v4: a jittered clock's epoch start is its own edge instead of that edge
// jittered a second time, which had put the first edge at or after an
// epoch's start before it. Jittered runs change; jitter-free results are
// bit-identical.
//
// v5: a telemetry sample's domain frequencies are the clock periods in
// effect at its commit time, not the pending period of a PLL still
// locking. Persisted telemetry artifacts change; simulation results are
// bit-identical.
const SchemaVersion = "gals-results-v5"

// Store is the persistence interface consumed by the compute layers
// (experiment's suite memo, sweep's measure matrices, the service's runs).
// Implementations must be safe for concurrent use. Load reports whether the
// key was found and v filled in; Store is best-effort — persistence is an
// accelerator, never a correctness dependency, so I/O errors are counted
// but not propagated.
type Store interface {
	Load(key string, v any) bool
	Store(key string, v any)
}

// Comparable reports whether s can be part of a map key. The process-local
// memos keyed per store (experiment's suites, learn's policy artifacts)
// hash the store's dynamic value, which panics for an uncomparable one (a
// map-backed store, say), so for such a store they compute without the
// memo.
func Comparable(s Store) bool {
	return s == nil || reflect.ValueOf(s).Comparable()
}

// Remover is the optional deletion side of a Store. Consumers that garbage-
// collect their own entries (the sweep layer removes a checkpoint once its
// parent summary is durable) type-assert for it, so plain map-backed test
// stores keep working unchanged.
type Remover interface {
	Remove(key string)
}

// Key builds a cache key for a request of the given kind. The request is
// canonicalized by its JSON encoding (struct fields in declaration order,
// map keys sorted), hashed together with SchemaVersion and the kind.
// Requests must therefore be plain data — normalized option structs, not
// pointers to live state.
func Key(kind string, req any) string {
	blob, err := json.Marshal(req)
	if err != nil {
		// Marshal of a plain option struct cannot fail; if a caller passes
		// something exotic (NaN floats, channels), hash the Go-syntax dump
		// instead — it still includes every field value, so distinct
		// requests cannot collide on the shared error string.
		blob = []byte(fmt.Sprintf("unmarshalable (%v): %#v", err, req))
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(blob)
	return kind + "/" + hex.EncodeToString(h.Sum(nil))
}

// Stats are a cache's lifetime counters.
type Stats struct {
	// Hits and Misses count Load outcomes.
	Hits, Misses int64
	// Puts counts successful Store writes; PutBytes their total payload.
	Puts     int64
	PutBytes int64
	// Errors counts I/O or decode failures (treated as misses).
	Errors int64
	// Corrupt counts blobs that existed but failed to decode — the
	// corrupt-entry-recovered-as-miss path specifically, a subset of
	// Errors. A rising Corrupt with flat Errors-elsewhere means the disk
	// (or an injected fault) is damaging blobs, not that I/O is failing.
	Corrupt int64
	// Evictions and EvictedBytes count files removed by Prune passes in
	// this process (LRU evictions plus stale temp/lock debris).
	Evictions    int64
	EvictedBytes int64
}

// Cache is the on-disk Store implementation. The zero value is not usable;
// create with Open. A nil *Cache ignores Stores and misses every Load, so
// callers can hold one unconditionally.
type Cache struct {
	dir string

	hits, misses, puts, errs           atomic.Int64
	putBytes, corrupt, evicts, evBytes atomic.Int64
}

// Open creates (if needed) and returns a cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// path maps a key to its blob file. Keys are produced by Key, but a
// malformed one degrades to a flat file under dir rather than escaping it.
func (c *Cache) path(key string) string {
	kind, hash, ok := strings.Cut(key, "/")
	if !ok || len(hash) < 2 || strings.ContainsAny(key, `\.`) {
		return filepath.Join(c.dir, "misc", hex.EncodeToString([]byte(key))+".json")
	}
	return filepath.Join(c.dir, kind, hash[:2], hash+".json")
}

// Load reads the entry for key into v, reporting whether it was found.
func (c *Cache) Load(key string, v any) bool {
	if c == nil {
		return false
	}
	if err := faultinject.Err(faultinject.ResultCacheRead); err != nil {
		c.errs.Add(1)
		c.misses.Add(1)
		return false
	}
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.errs.Add(1)
		}
		c.misses.Add(1)
		return false
	}
	blob = faultinject.Mutate(faultinject.ResultCacheRead, blob)
	if err := json.Unmarshal(blob, v); err != nil {
		// Corrupt or schema-incompatible entry: treat as a miss; the
		// caller's Store will overwrite it with a fresh blob.
		c.errs.Add(1)
		c.corrupt.Add(1)
		c.misses.Add(1)
		return false
	}
	// Mark the entry recently used so Prune's LRU order reflects reads,
	// not just writes. Best-effort: a failed touch only skews eviction.
	now := time.Now()
	os.Chtimes(c.path(key), now, now)
	c.hits.Add(1)
	return true
}

// Store writes the entry for key. Best-effort: errors are counted, not
// returned — a failed write costs a recompute next time, nothing more.
func (c *Cache) Store(key string, v any) {
	if c == nil {
		return
	}
	if err := faultinject.Err(faultinject.ResultCacheWrite); err != nil {
		c.errs.Add(1)
		return
	}
	blob, err := json.Marshal(v)
	if err != nil {
		c.errs.Add(1)
		return
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		c.errs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+filepath.Base(p)+".tmp*")
	if err != nil {
		c.errs.Add(1)
		return
	}
	_, werr := tmp.Write(blob)
	// Sync before the rename: without it a crash can publish an entry whose
	// data blocks never hit the disk — Load would then read a valid-looking
	// file of zeros instead of a missing one.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.errs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		c.errs.Add(1)
		return
	}
	c.puts.Add(1)
	c.putBytes.Add(int64(len(blob)))
}

// Has reports whether an entry for key exists on disk, without reading or
// decoding it (and so without touching hit/miss counters or mtimes). A
// present-but-corrupt blob still counts as existing; Scrub is what retires
// those.
func (c *Cache) Has(key string) bool {
	if c == nil {
		return false
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Remove deletes the entry for key. Best-effort like Store: a failure means
// the entry survives until the next Remove, Prune or Scrub.
func (c *Cache) Remove(key string) {
	if c == nil {
		return
	}
	if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
		c.errs.Add(1)
	}
}

// Keys lists every stored key of the given kind, in unspecified order.
// Intended for maintenance passes (checkpoint GC), not the hot path — it
// walks the kind's whole subtree.
func (c *Cache) Keys(kind string) []string {
	if c == nil {
		return nil
	}
	var keys []string
	filepath.WalkDir(filepath.Join(c.dir, kind), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			return nil
		}
		keys = append(keys, kind+"/"+strings.TrimSuffix(name, ".json"))
		return nil
	})
	return keys
}

// staleTempAge is how old a dot-prefixed temp file or .lock must be before
// Prune treats it as debris from a crashed writer and deletes it; live
// writes and recordings finish (or refresh their lock) well inside this.
const staleTempAge = time.Hour

// PruneStats reports one Prune pass.
type PruneStats struct {
	// RemovedFiles and RemovedBytes count what was deleted.
	RemovedFiles int   `json:"removed_files"`
	RemovedBytes int64 `json:"removed_bytes"`
	// RemainingBytes is the cache's size after the pass.
	RemainingBytes int64 `json:"remaining_bytes"`
}

// Prune deletes least-recently-used cache files until the directory's total
// size fits in maxBytes. "Used" is file mtime: Store writes and Load hits
// both refresh it, so hot sweep matrices and recordings survive while stale
// schema-orphaned blobs go first. In-flight temp files and lock files are
// skipped; a pruned entry is simply recomputed (or re-recorded) on next
// use, and deleting a currently-mmap'd recording is safe — the mapping
// keeps its pages. Note the disk-space corollary: a slab still mapped by a
// live process keeps its blocks allocated until that process exits, so
// RemovedBytes (file sizes unlinked) can lead `df` by the mapped set; the
// cap is re-enforced on the next pass once those processes are gone.
// maxBytes <= 0 prunes everything.
func (c *Cache) Prune(maxBytes int64) (PruneStats, error) {
	if c == nil {
		return PruneStats{}, nil
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	st := PruneStats{}
	// Every return path folds what the pass removed (LRU evictions plus
	// stale temp/lock debris) into the lifetime eviction counters.
	defer func() {
		c.evicts.Add(int64(st.RemovedFiles))
		c.evBytes.Add(st.RemovedBytes)
	}()
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // unreadable subtrees are simply not pruned
		}
		name := d.Name()
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		if strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".lock") {
			// In-flight temp files and recorder locks are not LRU
			// candidates — but ones a crashed writer abandoned are debris
			// that would otherwise accumulate outside the cap forever.
			if time.Since(fi.ModTime()) > staleTempAge && os.Remove(path) == nil {
				st.RemovedFiles++
				st.RemovedBytes += fi.Size()
			}
			return nil
		}
		files = append(files, entry{path: path, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
		return nil
	})
	st.RemainingBytes = total
	if err != nil {
		return st, fmt.Errorf("resultcache: %w", err)
	}
	if total <= maxBytes {
		return st, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if st.RemainingBytes <= maxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			if os.IsNotExist(err) {
				// A concurrent Prune (another galsd on the same cache dir)
				// or an operator's rm got there first; the bytes are gone
				// either way.
				st.RemainingBytes -= f.size
				continue
			}
			c.errs.Add(1)
			continue
		}
		st.RemovedFiles++
		st.RemovedBytes += f.size
		st.RemainingBytes -= f.size
	}
	return st, nil
}

// quarantineDir is the top-level subdirectory Scrub moves undecodable
// blobs into. Quarantined files keep their content for post-mortem but no
// longer match any key, so a fresh recompute overwrites the slot cleanly.
const quarantineDir = "quarantine"

// ScrubStats reports one Scrub pass.
type ScrubStats struct {
	// TempFiles and LockFiles count crashed-writer debris removed: in-flight
	// dot-prefixed temps and recorder .lock files respectively.
	TempFiles int `json:"temp_files"`
	LockFiles int `json:"lock_files"`
	// Quarantined counts blobs that existed but failed to decode and were
	// moved aside; QuarantinedBytes their total size.
	Quarantined      int   `json:"quarantined"`
	QuarantinedBytes int64 `json:"quarantined_bytes"`
}

// Scrub is the startup-recovery pass: it reaps crashed-writer debris and
// quarantines damaged blobs so a restarted daemon begins from a clean
// store. Unlike Prune's conservative stale-age rule, Scrub assumes the
// caller has exclusive use of the directory (galsd runs it before serving),
// so every temp and lock file is debris by definition and is removed
// regardless of age. JSON blobs that fail to decode as JSON at all are
// moved to <dir>/quarantine/ — kept for post-mortem, invisible to Load.
// The recordings subtree has its own binary format and its own scrub
// (recstore.Scrub); it and the quarantine itself are skipped here.
func (c *Cache) Scrub() (ScrubStats, error) {
	st := ScrubStats{}
	if c == nil {
		return st, nil
	}
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable subtrees are simply not scrubbed
		}
		if d.IsDir() {
			if path != c.dir {
				switch filepath.Base(path) {
				case quarantineDir, "recordings":
					return filepath.SkipDir
				}
			}
			return nil
		}
		name := d.Name()
		switch {
		case strings.HasSuffix(name, ".lock"):
			if os.Remove(path) == nil {
				st.LockFiles++
			}
		case strings.HasPrefix(name, "."):
			if os.Remove(path) == nil {
				st.TempFiles++
			}
		case strings.HasSuffix(name, ".json"):
			blob, rerr := os.ReadFile(path)
			if rerr != nil {
				c.errs.Add(1)
				return nil
			}
			if json.Valid(blob) {
				return nil
			}
			q := filepath.Join(c.dir, quarantineDir)
			if os.MkdirAll(q, 0o755) != nil {
				c.errs.Add(1)
				return nil
			}
			// Prefix with the kind so same-hash blobs of different kinds
			// (impossible today, cheap to be safe about) cannot collide.
			rel, _ := filepath.Rel(c.dir, path)
			dst := filepath.Join(q, strings.ReplaceAll(rel, string(filepath.Separator), "_"))
			if os.Rename(path, dst) != nil {
				c.errs.Add(1)
				return nil
			}
			st.Quarantined++
			st.QuarantinedBytes += int64(len(blob))
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("resultcache: %w", err)
	}
	return st, nil
}

// Stats returns the cache's counters so far.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Puts:         c.puts.Load(),
		PutBytes:     c.putBytes.Load(),
		Errors:       c.errs.Load(),
		Corrupt:      c.corrupt.Load(),
		Evictions:    c.evicts.Load(),
		EvictedBytes: c.evBytes.Load(),
	}
}

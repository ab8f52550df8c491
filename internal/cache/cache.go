// Package cache implements the Accounting Cache of Dropsho et al. (paper
// Section 3.1), the reconfigurable cache used by every resizable cache in
// the adaptive GALS processor.
//
// An Accounting Cache is a set-associative cache partitioned by ways into
// an A (primary) partition and a B (secondary) partition. The A partition
// is accessed first; on an A miss the B partition is probed, and a B hit
// swaps the block into A. Because the swap policy is exactly
// most-recently-used ordering, the cache maintains full MRU state over all
// physical ways regardless of the active partitioning, and simple counts of
// hits per MRU position suffice to reconstruct the exact number of A hits,
// B hits, and misses that *any* partitioning would have produced over the
// same access stream. This is what lets the phase controller evaluate all
// configurations from a single interval without exploration.
//
// Two operating modes exist (paper Section 3.1):
//
//   - A/B mode (Phase-Adaptive): an A miss probes B; blocks swap.
//   - A-only mode (fully synchronous and Program-Adaptive): a miss in A
//     goes directly to the next level; ways outside A hold no data but
//     their tags keep collecting MRU statistics.
package cache

import (
	"fmt"
	"slices"

	"gals/internal/timing"
)

// invalidTag marks an empty way.
const invalidTag = ^uint64(0)

// Geometry fixes the physical shape of a cache: the maximum enabled
// configuration. Resizing selects how many ways are in the A partition.
type Geometry struct {
	// Name labels the cache in statistics output.
	Name string
	// Sets is the number of sets (constant across resizing: the paper's
	// adaptive caches grow by ways, each way an identical RAM).
	Sets int
	// Ways is the number of physical ways.
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
}

func (g Geometry) validate() error {
	if g.Sets <= 0 {
		return fmt.Errorf("cache %s: sets %d not positive", g.Name, g.Sets)
	}
	if g.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d not positive", g.Name, g.Ways)
	}
	if g.LineBytes <= 0 || g.LineBytes&(g.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a positive power of two", g.Name, g.LineBytes)
	}
	return nil
}

// Class is the timing outcome of one access.
type Class uint8

const (
	// AHit found the block in the A partition.
	AHit Class = iota
	// BHit found the block in the B partition (A/B mode only).
	BHit
	// Miss did not find the block in any enabled partition.
	Miss
)

// String names the access class.
func (c Class) String() string {
	switch c {
	case AHit:
		return "A-hit"
	case BHit:
		return "B-hit"
	default:
		return "miss"
	}
}

// Stats are the interval statistics the accounting hardware maintains: one
// hit counter per MRU position, plus a counter of true (directory) misses.
type Stats struct {
	// PosHits[p] counts accesses whose block was at MRU position p.
	PosHits []uint64
	// DirMisses counts accesses whose block was in no physical way.
	DirMisses uint64
	// Accesses counts all accesses in the interval.
	Accesses uint64
	// Writebacks counts dirty evictions (informational).
	Writebacks uint64
}

// Reconstruct computes the exact number of A hits, B hits, and misses this
// interval would have seen under a partitioning with waysA enabled in A and
// the B partition enabled or not. This is the Accounting Cache's core
// property: the counts are exact for every configuration because MRU state
// evolution is configuration independent.
func (s *Stats) Reconstruct(waysA int, bEnabled bool) (aHits, bHits, misses uint64) {
	for p, n := range s.PosHits {
		if p < waysA {
			aHits += n
		} else if bEnabled {
			bHits += n
		} else {
			misses += n
		}
	}
	misses += s.DirMisses
	return aHits, bHits, misses
}

// AccountingCache is one resizable cache. It is purely functional: it
// tracks contents and statistics; timing (latencies, clock periods) is
// applied by the pipeline using the access Class.
type AccountingCache struct {
	geo      Geometry
	lineBits uint
	setMask  uint64 // used when Sets is a power of two
	setMod   uint64 // used otherwise (sets-resized caches can be 3/4 size)

	// tags holds the per-set ways in MRU order (most recent first),
	// Sets*Ways entries. Tags are full line addresses.
	tags  []uint64
	dirty []bool

	waysA    int
	bEnabled bool

	stats Stats
}

// New creates an empty cache with the given physical geometry, initially
// configured with all ways in A and no B partition.
func New(geo Geometry) *AccountingCache {
	if err := geo.validate(); err != nil {
		panic(err)
	}
	c := &AccountingCache{
		geo:      geo,
		tags:     slices.Repeat([]uint64{invalidTag}, geo.Sets*geo.Ways),
		dirty:    make([]bool, geo.Sets*geo.Ways),
		waysA:    geo.Ways,
		bEnabled: false,
	}
	c.stats.PosHits = make([]uint64, geo.Ways)
	for lb := geo.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	if geo.Sets&(geo.Sets-1) == 0 {
		c.setMask = uint64(geo.Sets - 1)
	} else {
		c.setMod = uint64(geo.Sets)
	}
	return c
}

// setIndex maps a line address to its set.
func (c *AccountingCache) setIndex(line uint64) int {
	if c.setMod != 0 {
		return int(line % c.setMod)
	}
	return int(line & c.setMask)
}

// Geometry returns the cache's physical shape.
func (c *AccountingCache) Geometry() Geometry { return c.geo }

// Configure sets the A partition size (1..Ways) and whether the B partition
// is enabled. Contents and statistics are preserved: reconfiguration in the
// Accounting Cache design moves no data (the partition is a labeling of
// ways by MRU position).
func (c *AccountingCache) Configure(waysA int, bEnabled bool) {
	if waysA < 1 || waysA > c.geo.Ways {
		panic(fmt.Sprintf("cache %s: A partition %d ways out of range 1..%d", c.geo.Name, waysA, c.geo.Ways))
	}
	if waysA == c.geo.Ways {
		bEnabled = false // no ways remain for B
	}
	c.waysA = waysA
	c.bEnabled = bEnabled
}

// WaysA returns the current A partition size.
func (c *AccountingCache) WaysA() int { return c.waysA }

// BEnabled reports whether the B partition is active.
func (c *AccountingCache) BEnabled() bool { return c.bEnabled }

// LineAddr maps a byte address to its line address.
func (c *AccountingCache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

// Access looks up addr, updates MRU state, statistics and contents, and
// returns the timing class of the access under the current configuration.
// Write accesses mark the line dirty. A Miss implies the block was (re)
// fetched from the next level and installed as MRU; the caller charges the
// next-level latency.
func (c *AccountingCache) Access(addr uint64, write bool) Class {
	return ClassifyPos(c.AccessPos(addr, write), c.waysA, c.bEnabled)
}

// AccessPos is Access without the classification: it performs the full
// state update (MRU move-to-front, statistics, contents, dirty bits) and
// returns the MRU position the block was found at, or -1 on a directory
// miss. The update is identical for every configuration — this is the
// Accounting Cache's defining property — so AccessPos needs no knowledge
// of the active partitioning. ClassifyPos(pos, waysA, bEnabled) recovers
// the timing class for any configuration; a recording's functional stream
// uses this split to evolve cache state once for every run and classify
// later, under the configuration in force when the access is timed.
func (c *AccountingCache) AccessPos(addr uint64, write bool) int {
	line := c.LineAddr(addr)
	base := c.setIndex(line) * c.geo.Ways
	ways := c.tags[base : base+c.geo.Ways]

	c.stats.Accesses++

	pos := -1
	for i, t := range ways {
		if t == line {
			pos = i
			break
		}
	}

	// Move-to-front MRU update (this is exactly the A/B swap behaviour).
	if pos < 0 {
		c.stats.DirMisses++
		// Install new line; evict the LRU way.
		last := c.geo.Ways - 1
		if ways[last] != invalidTag && c.dirty[base+last] {
			c.stats.Writebacks++
		}
		copy(ways[1:], ways[:last])
		copy(c.dirty[base+1:base+c.geo.Ways], c.dirty[base:base+last])
		ways[0] = line
		c.dirty[base] = write
		return pos
	}
	c.stats.PosHits[pos]++
	wasDirty := c.dirty[base+pos]
	copy(ways[1:], ways[:pos])
	copy(c.dirty[base+1:base+pos+1], c.dirty[base:base+pos])
	ways[0] = line
	c.dirty[base] = wasDirty || write
	return pos
}

// Writebacks returns the cumulative count of dirty evictions: comparing
// it across an AccessPos tells whether that access caused a write-back.
func (c *AccountingCache) Writebacks() uint64 { return c.stats.Writebacks }

// ClassifyPos maps an AccessPos result to the timing class it would have
// under a partitioning with waysA primary ways and the B partition enabled
// or not. A position in a disabled way (pos >= waysA without B) is a miss
// for timing — the data is not resident — exactly as in Access.
func ClassifyPos(pos, waysA int, bEnabled bool) Class {
	switch {
	case pos < 0:
		return Miss
	case pos < waysA:
		return AHit
	case bEnabled:
		return BHit
	default:
		return Miss
	}
}

// Stats returns a copy of the interval statistics.
func (c *AccountingCache) Stats() Stats { return c.stats.Clone() }

// SetStats replaces the interval statistics with a copy of s, which must
// have one PosHits counter per physical way. A streamed machine keeps the
// statistics outside the cache while it replays a stream and hands them
// back when it leaves the stream.
func (c *AccountingCache) SetStats(s Stats) {
	if len(s.PosHits) != c.geo.Ways {
		panic(fmt.Sprintf("cache %s: %d position counters for %d ways", c.geo.Name, len(s.PosHits), c.geo.Ways))
	}
	ph := c.stats.PosHits
	copy(ph, s.PosHits)
	c.stats = s
	c.stats.PosHits = ph
}

// ResetStats clears the interval statistics (the controller does this every
// 15K-instruction interval).
func (c *AccountingCache) ResetStats() { c.stats.Reset() }

// Count folds one access into the statistics as AccessPos does: pos is its
// MRU position, or -1 for a directory miss, and writeback marks a dirty
// eviction.
func (s *Stats) Count(pos int, writeback bool) {
	s.Accesses++
	if pos < 0 {
		s.DirMisses++
	} else {
		s.PosHits[pos]++
	}
	if writeback {
		s.Writebacks++
	}
}

// Clone returns a copy of s that shares no storage with it.
func (s *Stats) Clone() Stats {
	c := *s
	c.PosHits = append([]uint64(nil), s.PosHits...)
	return c
}

// Reset clears the interval counters. Writebacks is cumulative and
// informational, so it survives.
func (s *Stats) Reset() {
	for i := range s.PosHits {
		s.PosHits[i] = 0
	}
	s.DirMisses = 0
	s.Accesses = 0
}

// CostParams describe one candidate configuration for the interval cost
// model (paper Section 3.1): latencies in cycles, the candidate clock
// period, and the modeled time to service a miss at the next level.
type CostParams struct {
	// ALat and BLat are the A access latency and the *additional* B access
	// latency, in cycles of the candidate configuration's clock.
	ALat, BLat int
	// Period is the candidate configuration's clock period.
	Period timing.FS
	// MissPenalty is the modeled time for a next-level access.
	MissPenalty timing.FS
}

// Cost computes the total access time the interval would have incurred
// under a candidate configuration with the given reconstructed counts.
// Every access pays the A latency and B hits pay the additional B latency.
// On a full miss the B probe proceeds in parallel with the next-level
// request (miss-under-probe), so misses pay only the A latency plus the
// miss penalty; the pipeline model in package core uses the same rule.
func Cost(aHits, bHits, misses uint64, bEnabled bool, p CostParams) timing.FS {
	_ = bEnabled // B probes on misses are overlapped with the next level
	accesses := aHits + bHits + misses
	cycles := accesses*uint64(p.ALat) + bHits*uint64(p.BLat)
	return timing.FS(cycles)*p.Period + timing.FS(misses)*p.MissPenalty
}

// Package timing provides the circuit-timing model of the adaptive GALS
// processor: the maximum clock frequency of every resizable-structure
// configuration, and the cache access latencies of the A and B partitions.
//
// The paper derives these numbers from CACTI 3.1 (caches, Section 2.1-2.2)
// and from the Palacharla/Jouppi model (issue queues, Section 2.3). Neither
// tool is available here, so this package implements an analytical model
// calibrated so that every ratio the paper reports holds exactly enough to
// drive the same conclusions:
//
//   - Figure 2: D-cache/L2 frequency falls from ~1.79 GHz (32KB/256KB
//     direct mapped) to ~0.76 GHz (256KB/2MB 8-way); the "optimal"
//     (non-resizable) organization is ~5% faster at upsized points.
//   - Figure 3: the adaptive I-cache loses ~31% frequency from direct
//     mapped to 2-way; the optimal 64KB direct-mapped cache is 27% faster
//     than the adaptive 64KB 4-way configuration.
//   - Figure 4: issue queues drop sharply from 16 entries (2 levels of
//     log4 selection logic) to 20..64 entries (3 levels), then decline
//     gently with capacity.
//
// Frequencies are expressed in MHz and periods in femtoseconds so that all
// downstream arithmetic is exact integer math.
package timing

import "fmt"

// FS is one femtosecond. Simulation time is measured in integer
// femtoseconds throughout the simulator.
type FS = int64

const (
	// FemtosPerNano is the number of femtoseconds in a nanosecond.
	FemtosPerNano FS = 1_000_000
	// FemtosPerMicro is the number of femtoseconds in a microsecond.
	FemtosPerMicro FS = 1_000_000_000
)

// PeriodFS converts a frequency in MHz to a clock period in femtoseconds.
func PeriodFS(mhz float64) FS {
	if mhz <= 0 {
		panic(fmt.Sprintf("timing: non-positive frequency %v MHz", mhz))
	}
	return FS(1e9/mhz + 0.5)
}

// FreqMHz converts a period in femtoseconds to a frequency in MHz.
func FreqMHz(period FS) float64 {
	if period <= 0 {
		panic(fmt.Sprintf("timing: non-positive period %d fs", period))
	}
	return 1e9 / float64(period)
}

// ---------------------------------------------------------------------------
// Load/store domain: joint L1-D / L2 configurations (paper Table 1).

// DCacheConfig indexes the four joint L1-D/L2 configurations of Table 1.
// The pair is always resized together, by ways.
type DCacheConfig int

const (
	// DCache32K1W is 32KB direct-mapped L1-D with 256KB direct-mapped L2:
	// the base (smallest, fastest) configuration.
	DCache32K1W DCacheConfig = iota
	// DCache64K2W is 64KB 2-way L1-D with 512KB 2-way L2.
	DCache64K2W
	// DCache128K4W is 128KB 4-way L1-D with 1MB 4-way L2.
	DCache128K4W
	// DCache256K8W is 256KB 8-way L1-D with 2MB 8-way L2.
	DCache256K8W
	// NumDCacheConfigs is the number of joint D/L2 configurations.
	NumDCacheConfigs = int(DCache256K8W) + 1
)

// DCacheSpec describes one row of Table 1.
type DCacheSpec struct {
	// Name is the compact label used in the paper's figures,
	// e.g. "32k1W/256k1W".
	Name string
	// L1SizeKB and L2SizeKB are the total capacities enabled.
	L1SizeKB, L2SizeKB int
	// Assoc is the associativity of both caches (ways enabled).
	Assoc int
	// L1SubBanksAdapt and L1SubBanksOpt are CACTI sub-bank counts for the
	// adaptive and optimal organizations (Table 1).
	L1SubBanksAdapt, L1SubBanksOpt int
	// L2SubBanksAdapt and L2SubBanksOpt are sub-banks per Table 1.
	L2SubBanksAdapt, L2SubBanksOpt int
	// AdaptMHz is the domain frequency of the adaptive organization.
	AdaptMHz float64
	// OptimalMHz is the frequency of the fixed optimal organization of the
	// same capacity/associativity (used by fully synchronous designs).
	OptimalMHz float64
	// L1ALat is the L1 A-partition latency in cycles, and L1BLat the
	// additional B-partition latency (0 when no B partition exists).
	// Paper Table 5: L1 "2/8, 2/5, 2/2, or 2/-".
	L1ALat, L1BLat int
	// L2ALat / L2BLat follow Table 5: "12/43, 12/27, 12/12, or 12/-".
	L2ALat, L2BLat int
}

// dcacheSpecs is calibrated to Figure 2 (y-axis 0.4-1.8 GHz) and Table 1.
var dcacheSpecs = [NumDCacheConfigs]DCacheSpec{
	{"32k1W/256k1W", 32, 256, 1, 32, 32, 8, 8, 1790, 1790, 2, 8, 12, 43},
	{"64k2W/512k2W", 64, 512, 2, 32, 8, 8, 4, 1300, 1345, 2, 5, 12, 27},
	{"128k4W/1024k4W", 128, 1024, 4, 32, 16, 8, 4, 1000, 1015, 2, 2, 12, 12},
	{"256k8W/2048k8W", 256, 2048, 8, 32, 4, 8, 4, 760, 800, 2, 0, 12, 0},
}

// Spec returns the Table 1 row for the configuration.
func (c DCacheConfig) Spec() DCacheSpec { return dcacheSpecs[c] }

// String returns the paper's label for the configuration.
func (c DCacheConfig) String() string { return dcacheSpecs[c].Name }

// AdaptPeriod returns the adaptive-organization clock period.
func (c DCacheConfig) AdaptPeriod() FS { return PeriodFS(dcacheSpecs[c].AdaptMHz) }

// DCacheConfigs lists all four configurations in upsizing order.
func DCacheConfigs() []DCacheConfig {
	return []DCacheConfig{DCache32K1W, DCache64K2W, DCache128K4W, DCache256K8W}
}

// ---------------------------------------------------------------------------
// Front end domain: joint I-cache / branch predictor configurations
// (paper Tables 2 and 3).

// BPredGeom sizes the McFarling hybrid predictor attached to an I-cache
// configuration (Tables 2 and 3 share this shape).
type BPredGeom struct {
	// GShareBits is hg: the global history length; the gshare BHT and the
	// meta-predictor each have 2^GShareBits two-bit counters.
	GShareBits int
	// GShareEntries and MetaEntries are the corresponding table sizes.
	GShareEntries, MetaEntries int
	// LocalBits is hl: the local history width; the local BHT has
	// 2^LocalBits two-bit counters.
	LocalBits int
	// LocalBHTEntries is the local second-level table size.
	LocalBHTEntries int
	// LocalPHTEntries is the per-branch pattern history table size.
	LocalPHTEntries int
}

// ICacheConfig indexes the four adaptive I-cache/branch-predictor
// configurations of Table 2.
type ICacheConfig int

const (
	// ICache16K1W is the 16KB direct-mapped base configuration.
	ICache16K1W ICacheConfig = iota
	// ICache32K2W is 32KB 2-way.
	ICache32K2W
	// ICache48K3W is 48KB 3-way.
	ICache48K3W
	// ICache64K4W is 64KB 4-way.
	ICache64K4W
	// NumICacheConfigs is the number of adaptive front-end configurations.
	NumICacheConfigs = int(ICache64K4W) + 1
)

// ICacheSpec describes one row of Table 2 plus the calibrated frequency.
type ICacheSpec struct {
	// Name is a compact label, e.g. "16k1W".
	Name string
	// SizeKB is the enabled capacity; Assoc the enabled ways.
	SizeKB, Assoc int
	// SubBanks is the CACTI sub-bank count (32 for every adaptive row).
	SubBanks int
	// BPred is the jointly sized branch predictor.
	BPred BPredGeom
	// AdaptMHz is the front-end domain frequency with this configuration.
	AdaptMHz float64
	// ALat is the A-partition latency in cycles; BLat the additional
	// B-partition latency (0 when the full cache is enabled).
	ALat, BLat int
}

// icacheSpecs is calibrated to Figure 3: a ~31% drop from direct-mapped to
// 2-way, and 64KB 4-way 27% slower than the optimal 64KB direct-mapped.
var icacheSpecs = [NumICacheConfigs]ICacheSpec{
	{"16k1W", 16, 1, 32, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1770, 2, 8},
	{"32k2W", 32, 2, 32, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1220, 2, 5},
	{"48k3W", 48, 3, 32, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1080, 2, 2},
	{"64k4W", 64, 4, 32, BPredGeom{16, 65536, 65536, 13, 8192, 1024}, 953, 2, 0},
}

// Spec returns the Table 2 row for the configuration.
func (c ICacheConfig) Spec() ICacheSpec { return icacheSpecs[c] }

// String returns the compact label for the configuration.
func (c ICacheConfig) String() string { return icacheSpecs[c].Name }

// AdaptPeriod returns the front-end clock period for the configuration.
func (c ICacheConfig) AdaptPeriod() FS { return PeriodFS(icacheSpecs[c].AdaptMHz) }

// ICacheConfigs lists all four configurations in upsizing order.
func ICacheConfigs() []ICacheConfig {
	return []ICacheConfig{ICache16K1W, ICache32K2W, ICache48K3W, ICache64K4W}
}

// SyncICacheSpec describes one row of Table 3: an optimized, non-resizable
// I-cache/branch-predictor organization available to the fully synchronous
// design-space sweep.
type SyncICacheSpec struct {
	// Name is a compact label, e.g. "64k1W".
	Name string
	// SizeKB, Assoc and SubBanks follow Table 3.
	SizeKB, Assoc, SubBanks int
	// BPred is the jointly sized predictor.
	BPred BPredGeom
	// MHz is the calibrated maximum frequency of the organization.
	MHz float64
	// ALat is the access latency in cycles (optimized caches have no B
	// partition).
	ALat int
}

// syncICacheSpecs lists all 16 rows of Table 3. Frequencies are calibrated
// so that direct-mapped organizations are markedly faster than set
// associative ones at equal capacity (Section 2.2) and so the 64KB
// direct-mapped entry is 27% faster than the adaptive 64KB 4-way.
var syncICacheSpecs = [...]SyncICacheSpec{
	{"4k1W", 4, 1, 2, BPredGeom{12, 4096, 4096, 10, 1024, 512}, 2100, 2},
	{"8k1W", 8, 1, 4, BPredGeom{13, 8192, 8192, 10, 1024, 1024}, 1950, 2},
	{"16k1W", 16, 1, 16, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1770, 2},
	{"32k1W", 32, 1, 32, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1520, 2},
	{"64k1W", 64, 1, 32, BPredGeom{16, 65536, 65536, 13, 8192, 1024}, 1210, 2},
	{"4k2W", 4, 2, 8, BPredGeom{12, 4096, 4096, 10, 1024, 512}, 1800, 2},
	{"8k2W", 8, 2, 16, BPredGeom{13, 8192, 8192, 10, 1024, 1024}, 1650, 2},
	{"16k2W", 16, 2, 32, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1500, 2},
	{"32k2W", 32, 2, 32, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1350, 2},
	{"64k2W", 64, 2, 32, BPredGeom{16, 65536, 65536, 13, 8192, 1024}, 1100, 2},
	{"12k3W", 12, 3, 16, BPredGeom{13, 8192, 8192, 10, 1024, 1024}, 1520, 2},
	{"16k4W", 16, 4, 16, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1400, 2},
	{"24k3W", 24, 3, 32, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1360, 2},
	{"32k4W", 32, 4, 2, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1230, 2},
	{"48k3W", 48, 3, 32, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1150, 2},
	{"64k4W", 64, 4, 16, BPredGeom{16, 65536, 65536, 13, 8192, 1024}, 1050, 2},
}

// NumSyncICacheSpecs is the number of Table 3 rows.
const NumSyncICacheSpecs = len(syncICacheSpecs)

// SyncICacheSpecs returns all 16 optimized front-end organizations of
// Table 3 (the fully synchronous design space sweeps every one of them).
// It copies the table; single-row lookups use SyncICacheSpecAt.
func SyncICacheSpecs() []SyncICacheSpec {
	out := make([]SyncICacheSpec, NumSyncICacheSpecs)
	copy(out, syncICacheSpecs[:])
	return out
}

// SyncICacheSpecAt returns Table 3 row i by value without copying the
// table. It panics if i is out of range, like indexing SyncICacheSpecs.
func SyncICacheSpecAt(i int) SyncICacheSpec { return syncICacheSpecs[i] }

// SyncICacheIndexByName finds a Table 3 row by its compact label.
func SyncICacheIndexByName(name string) (int, bool) {
	for i, s := range syncICacheSpecs {
		if s.Name == name {
			return i, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Integer and floating point domains: issue queues (paper Figure 4).

// IQSize is an issue queue capacity in entries.
type IQSize int

// Issue queue capacities considered by the adaptive machine (Section 2.3).
const (
	IQ16 IQSize = 16
	IQ32 IQSize = 32
	IQ48 IQSize = 48
	IQ64 IQSize = 64
)

// IQSizes lists the four adaptive issue queue capacities in upsizing order.
func IQSizes() []IQSize { return []IQSize{IQ16, IQ32, IQ48, IQ64} }

// IQIndex returns the 0..3 upsizing index of a queue size.
func IQIndex(s IQSize) int {
	switch s {
	case IQ16:
		return 0
	case IQ32:
		return 1
	case IQ48:
		return 2
	case IQ64:
		return 3
	}
	panic(fmt.Sprintf("timing: invalid issue queue size %d", s))
}

// selectionLevels returns the number of levels of log4 selection logic for
// an n-entry queue: ceil(log4(n)). A 16-entry queue needs 2 levels; every
// larger queue up to 64 entries needs 3 (Section 2.3).
func selectionLevels(n int) int {
	levels := 0
	for span := 1; span < n; span *= 4 {
		levels++
	}
	return levels
}

// IQFreqMHz returns the maximum frequency of an n-entry issue queue, for
// any n in [16, 64]. The curve reproduces Figure 4: a cliff between 16 and
// 20 entries where the selection tree gains a third level, then a gentle
// wire-dominated decline.
func IQFreqMHz(n int) float64 {
	if n < 16 || n > 64 {
		panic(fmt.Sprintf("timing: issue queue size %d out of modeled range [16,64]", n))
	}
	// Selection delay dominates and is proportional to the number of levels;
	// wakeup adds a small per-entry wire term. Calibrated to Figure 4:
	// ~1.45 GHz at 16 entries — comfortably above the 1.21 GHz 64KB
	// direct-mapped front end that limits the best synchronous design
	// (Section 4), which is exactly the headroom the MCD integer domain
	// exploits — ~1.05 GHz at 32 entries once the third selection-logic
	// level appears, ~0.95 at 64.
	const (
		levelPS = 211.5 // per selection-logic level
		entryPS = 3.16  // per queue entry (wakeup broadcast wire)
		basePS  = 216.0 // latches and clock skew budget
	)
	ps := basePS + levelPS*float64(selectionLevels(n)) + entryPS*float64(n)
	return 1e6 / ps
}

// IQPeriod returns the issue queue clock period for one of the four
// adaptive capacities.
func IQPeriod(s IQSize) FS { return PeriodFS(IQFreqMHz(int(s))) }

// ---------------------------------------------------------------------------
// Main memory (fixed fifth domain).

// Memory timing, paper Table 5: 80ns for the first access and 2ns for each
// subsequent (pipelined) chunk of the same transfer.
const (
	// MemFirstAccess is the latency of the first chunk of a memory access.
	MemFirstAccess FS = 80 * FemtosPerNano
	// MemNextAccess is the latency of each subsequent chunk.
	MemNextAccess FS = 2 * FemtosPerNano
	// MemChunkBytes is the memory bus width per chunk.
	MemChunkBytes = 16
)

// MemLatency returns the total latency to transfer size bytes from main
// memory (first chunk at MemFirstAccess, the rest pipelined).
func MemLatency(size int) FS {
	if size <= 0 {
		return 0
	}
	chunks := (size + MemChunkBytes - 1) / MemChunkBytes
	return MemFirstAccess + FS(chunks-1)*MemNextAccess
}

// ---------------------------------------------------------------------------
// Sets-based adaptive I-cache (paper Section 7 future work).
//
// The paper observes (Section 5.1) that several applications need 64KB of
// instruction-cache *capacity* but not associativity, and the ways-based
// adaptive front end cannot offer that without the 2-way/4-way frequency
// penalty; it proposes resizing by sets instead, keeping every
// configuration direct mapped. This reproduction implements that extension
// for Program-Adaptive machines.

// SetsICacheSpec describes one direct-mapped, sets-resized front-end
// configuration: the same capacities as Table 2 but direct mapped at the
// (slightly derated) optimal direct-mapped frequencies. The resizing
// muxes cost ~3% versus the fixed optimal organizations of Table 3.
type SetsICacheSpec struct {
	// Name labels the configuration, e.g. "16k1W-sets".
	Name string
	// SizeKB is the enabled capacity; Sets the enabled set count.
	SizeKB, Sets int
	// BPred is the jointly sized predictor (shared with Table 2's size
	// class).
	BPred BPredGeom
	// MHz is the front-end frequency with this configuration.
	MHz float64
	// ALat is the access latency in cycles.
	ALat int
}

// setsICacheSpecs derates the Table 3 direct-mapped curve by ~3% for the
// resizing support (except the base size, which is the layout anchor).
var setsICacheSpecs = [NumICacheConfigs]SetsICacheSpec{
	{"16k1W-sets", 16, 256, BPredGeom{14, 16384, 16384, 11, 2048, 1024}, 1770, 2},
	{"32k1W-sets", 32, 512, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1475, 2},
	{"48k1W-sets", 48, 768, BPredGeom{15, 32768, 32768, 12, 4096, 1024}, 1310, 2},
	{"64k1W-sets", 64, 1024, BPredGeom{16, 65536, 65536, 13, 8192, 1024}, 1175, 2},
}

// SetsICacheSpec returns the sets-resized front-end configuration for the
// same size class as the ways-based configuration c.
func (c ICacheConfig) SetsSpec() SetsICacheSpec { return setsICacheSpecs[c] }

// SetsPeriod returns the front-end clock period of the sets-resized
// configuration in c's size class.
func (c ICacheConfig) SetsPeriod() FS { return PeriodFS(setsICacheSpecs[c].MHz) }

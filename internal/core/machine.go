package core

import (
	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/clock"
	"gals/internal/control"
	"gals/internal/isa"
	"gals/internal/mem"
	"gals/internal/queue"
	"gals/internal/timing"
	"gals/internal/workload"
)

// window enforces a fixed-occupancy structural constraint: an instruction
// may claim a slot only after the instruction n slots earlier released its
// slot. push records a release time; floor(n) returns the release time of
// the n-th most recent push (or 0 when fewer than n pushes have happened).
//
// Every window is a 256-slot ring held by value in the Machine, indexed by
// a uint8: the wrap is the index's own overflow and the compiler drops the
// bounds check, so push and floor, which run tens of times per simulated
// instruction, are one store or load each. floor(n) reads only the n-th
// most recent push, so a ring deeper than its structure returns the same
// values, and a per-cycle bandwidth limit is a shallow read of the deeper
// structure's window. Unpushed slots hold the zero value, which floor
// reports as "no constraint". floor requires 0 < n <= windowSlots; n ==
// windowSlots reads buf[head], the oldest push.
type window struct {
	buf  [windowSlots]timing.FS
	head uint8 // next write position
}

const windowSlots = 256

func (w *window) push(t timing.FS) {
	w.buf[w.head] = t
	w.head++
}

func (w *window) floor(n int) timing.FS {
	return w.buf[w.head-uint8(n)]
}

// Every floor read must fit in the ring; a constant change that breaks
// this fails the build (a negative array length).
var _ [windowSlots - max(ROBEntries, RetireWidth, FetchQueueEntries, DecodeWidth,
	int(timing.IQ64), IssueWidth, LSQEntries, PhysIntRegs-isa.NumIntRegs,
	PhysFPRegs-isa.NumFPRegs, DCachePorts, MSHREntries)]struct{}

// fuPool models a set of identical functional units by the time each unit
// is next available. take picks a unit; the caller books it by writing
// avail[unit].
type fuPool struct {
	avail []timing.FS
}

func newFUPool(n int) *fuPool {
	return &fuPool{avail: make([]timing.FS, n)}
}

// take returns the first unit with the smallest availability time and the
// earliest start >= t on it. The argmin is a compare-and-select loop with
// no data-dependent branch (the compiler emits conditional moves): which
// unit frees first follows the workload's timing, so a branch on it
// mispredicts often.
func (f *fuPool) take(t timing.FS) (unit int, start timing.FS) {
	a := f.avail
	best := a[0]
	for i := 1; i < len(a); i++ {
		if v := a[i]; v < best {
			unit, best = i, v
		}
	}
	return unit, max(t, best)
}

// storeEntry is one slot of the store-forwarding table.
type storeEntry struct {
	addr  uint64
	seq   int64 // memory-op sequence number of the store
	ready timing.FS
}

const storeTableSize = 1024

// reconfigKind tags reconfiguration events for Figure 7 traces.
type reconfigKind int

const (
	reconfigDCache reconfigKind = iota
	reconfigICache
	reconfigIntIQ
	reconfigFPIQ
)

// ReconfigEvent records one phase-controller decision (Figure 7).
type ReconfigEvent struct {
	// Instr is the committed-instruction count at the decision.
	Instr int64
	// Kind names the resized structure: "dcache", "icache", "int-iq",
	// "fp-iq".
	Kind string
	// Config is the new configuration label (e.g. "128k4W/1024k4W", "32").
	Config string
	// Index is the new configuration's upsizing index (0..3).
	Index int
}

// InstSource is a stream of dynamic instructions: either a live generator
// (*workload.Trace) or a recorded replay (*workload.Replay). The simulator
// is source-agnostic — a recording replays bit-identically to live
// generation, so sweeps share one immutable recording per benchmark across
// all configuration runs.
type InstSource interface {
	// Next fills in with the next dynamic instruction.
	Next(in *isa.Inst)
	// Spec returns the benchmark description.
	Spec() workload.Spec
}

// Machine is one configured processor instance bound to one workload
// instruction source. Create with NewMachine or NewMachineSource, drive
// with Run.
type Machine struct {
	cfg   Config
	trace InstSource

	clocks [clock.NumDomains]*clock.Clock
	// syncPaths memoize Sync's per-pair period lookups between
	// reconfigurations (indexed [producer][consumer]).
	syncPaths [clock.NumDomains][clock.NumDomains]*clock.SyncPath
	pll       *clock.PLL

	icache *cache.AccountingCache
	dcache *cache.AccountingCache
	l2     *cache.AccountingCache
	memc   *mem.Controller

	bank     *bpred.Bank      // adaptive modes
	syncPred *bpred.Predictor // synchronous mode

	// Current adaptive configuration state.
	iCfg     timing.ICacheConfig
	dCfg     timing.DCacheConfig
	intIQ    timing.IQSize
	fpIQ     timing.IQSize
	fePeriod timing.FS
	lsPeriod timing.FS

	// Access latencies in cycles of the current front-end (I-cache) and
	// load/store (L1 D, L2) configurations: A partition and extra B
	// latency. Set by setICacheLatencies/setDCacheLatencies whenever iCfg
	// or dCfg changes, so the instruction loop never looks them up.
	iLatA, iLatB   int
	l1LatA, l1LatB int
	l2LatA, l2LatB int

	// Structural windows, each with the limits read from it.
	rob     window // commit times: ROBEntries; RetireWidth per cycle
	fetchQ  window // rename times: FetchQueueEntries; DecodeWidth per cycle
	intQ    window // issue times of int-queue ops: intIQ; IssueWidth per cycle
	fpQ     window // issue times of fp-queue ops: fpIQ; IssueWidth per cycle
	lsq     window // commit times of memory ops: LSQEntries
	intRegs window // commit times of int-dest ops: PhysIntRegs-NumIntRegs
	fpRegs  window // commit times of fp-dest ops: PhysFPRegs-NumFPRegs
	dports  window // D-cache port grants: DCachePorts per cycle
	mshr    window // outstanding-miss completion times: MSHREntries

	intFU  *fuPool // IntALU
	intMul *fuPool
	fpFU   *fuPool
	fpMul  *fuPool

	// Register scoreboard: ready time and producing domain per logical reg.
	regReady  [64]timing.FS
	regDomain [64]clock.Domain

	// Store-forwarding table.
	stores [storeTableSize]storeEntry
	memSeq int64 // memory-op sequence counter

	// Fetch state.
	curLine     uint64
	lineLeft    int // fetch-group slots left in the current line group
	groupReady  timing.FS
	nextLineAt  timing.FS // earliest start of the next line access
	minFetch    timing.FS // redirect floor after mispredictions
	minIntIssue timing.FS // integer-side mispredict floor
	lastCommit  timing.FS
	lastRename  timing.FS

	// Adaptation policy (PhaseAdaptive): the run's decision state, plus the
	// machine-side mechanism bookkeeping. cacheEvery caches the policy's
	// accounting interval (0 disables); actBuf backs the per-decision action
	// slice so interval boundaries allocate nothing.
	ctl           control.Controller
	cacheEvery    int64
	actBuf        [4]control.Reconfig
	tracker       *queue.Tracker
	intervalStart int64
	pendingFE     *pendingReconfig
	pendingLS     *pendingReconfig
	pendingIntIQ  *pendingIQ
	pendingFPIQ   *pendingIQ

	stats Stats
	count int64

	// tel is the run's telemetry sampler (RunOptions.Telemetry); nil by default,
	// costing one predictable branch per decision boundary and nothing in
	// the instruction loop.
	tel *Telemetry
	// dirCounts accumulates committed reconfigurations by
	// [reconfigKind][direction index] for the process-wide
	// structure/direction metric, folded once at result construction.
	dirCounts [4][3]int64

	// fs is the timing stage's state when the run's functional work comes
	// from a recording's functional stream (stream.go); nil in the fused
	// loop, making every gate in step() one predictable branch.
	fs *streamState
}

// pendingReconfig is an in-flight cache-domain frequency change.
type pendingReconfig struct {
	at    timing.FS // PLL lock completion
	final int       // target config index
}

// pendingIQ is an in-flight issue-queue resize.
type pendingIQ struct {
	at    timing.FS
	final timing.IQSize
}

// Stats accumulates run statistics.
type Stats struct {
	Instructions int64
	Branches     int64
	Mispredicts  int64
	Loads        int64
	Stores       int64
	FPOps        int64

	ICacheA, ICacheB, ICacheMiss int64
	DCacheA, DCacheB, DCacheMiss int64
	L2A, L2B, L2Miss             int64
	MemAccesses                  int64

	Reconfigs      int64
	ReconfigEvents []ReconfigEvent

	// ConfigInstrs accumulates committed instructions spent in each
	// configuration index per structure (for distribution reporting).
	ICacheInstrs [timing.NumICacheConfigs]int64
	DCacheInstrs [timing.NumDCacheConfigs]int64
	IntIQInstrs  [4]int64
	FPIQInstrs   [4]int64
}

// Result summarizes one run.
type Result struct {
	Workload string
	Config   Config
	// TimeFS is the total execution time of the window.
	TimeFS timing.FS
	Stats  Stats
}

// Seconds returns the run time in seconds.
func (r *Result) Seconds() float64 { return float64(r.TimeFS) * 1e-15 }

// IPnsec returns committed instructions per nanosecond (the throughput
// metric the paper's "performance improvement" compares).
func (r *Result) IPnsec() float64 {
	if r.TimeFS == 0 {
		return 0
	}
	return float64(r.Stats.Instructions) / (float64(r.TimeFS) / float64(timing.FemtosPerNano))
}

// NewMachine builds a machine for cfg bound to a fresh live trace of spec.
func NewMachine(spec workload.Spec, cfg Config) *Machine {
	return NewMachineSource(spec.NewTrace(), cfg)
}

// NewMachineSource builds a machine for cfg bound to an existing
// instruction source (a live trace or a recorded replay). The source must
// be positioned at the start of the stream and must not be shared with
// another machine.
func NewMachineSource(src InstSource, cfg Config) *Machine {
	m := newMachine(src, cfg)
	if cfg.Mode == PhaseAdaptive {
		ctl, err := control.New(cfg.Policy, cfg.PolicyParams, m.controlInit())
		if err != nil {
			panic(err) // Validate() in newMachine rejects unknown policies/params
		}
		m.installController(ctl)
	}
	return m
}

// NewMachineController builds a PhaseAdaptive machine driven by an
// explicitly constructed controller instead of the config's registry
// selection — the hook behind the learned-policy training pipeline, which
// wraps a registered policy's controller to observe its decisions. The
// config's own Policy/PolicyParams/PolicyBlob must be empty (the injected
// controller is the decision-maker; a config that also names one would give
// the run two conflicting identities).
func NewMachineController(src InstSource, cfg Config, ctl control.Controller) *Machine {
	if cfg.Mode != PhaseAdaptive {
		panic("core: NewMachineController requires PhaseAdaptive mode")
	}
	if cfg.Policy != "" || cfg.PolicyParams != "" || cfg.PolicyBlob != "" {
		panic("core: NewMachineController config must not also select a registry policy")
	}
	if ctl == nil {
		panic("core: NewMachineController requires a controller")
	}
	m := newMachine(src, cfg)
	m.installController(ctl)
	return m
}

// controlInit assembles the per-run construction state handed to the
// policy layer.
func (m *Machine) controlInit() control.Init {
	return control.Init{
		IntIQ:        m.cfg.IntIQ,
		FPIQ:         m.cfg.FPIQ,
		ICache:       m.cfg.ICache,
		DCache:       m.cfg.DCache,
		IQHysteresis: m.cfg.IQHysteresis,
		Blob:         m.cfg.PolicyBlob,
	}
}

// installController binds the run's decision state and the mechanism
// bookkeeping it implies (decision cadence, ILP tracking hardware).
func (m *Machine) installController(ctl control.Controller) {
	m.ctl = ctl
	m.cacheEvery = ctl.CacheInterval()
	if ctl.NeedsIQ() {
		m.tracker = queue.NewTrackerSizes(ctl.IQWindows())
	}
}

// newMachine builds the mechanism: clocks, caches, windows and pools. The
// PhaseAdaptive decision state is installed separately (installController).
func newMachine(src InstSource, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:   cfg,
		trace: src,
		memc:  mem.New(),
		pll:   clock.NewPLL(cfg.Seed ^ 0x9e37),
		iCfg:  cfg.ICache,
		dCfg:  cfg.DCache,
		intIQ: cfg.IntIQ,
		fpIQ:  cfg.FPIQ,
	}

	// Clocks.
	if cfg.Mode == Synchronous {
		g := clock.New(clock.FrontEnd, cfg.GlobalPeriod(), uint64(cfg.Seed), cfg.JitterFrac)
		for d := 0; d < clock.NumDomains; d++ {
			m.clocks[d] = g // one shared clock: Sync() is the identity
		}
	} else {
		fePeriod := cfg.ICache.AdaptPeriod()
		if cfg.ICacheBySets {
			fePeriod = cfg.ICache.SetsPeriod()
		}
		m.clocks[clock.FrontEnd] = clock.New(clock.FrontEnd, fePeriod, uint64(cfg.Seed), cfg.JitterFrac)
		m.clocks[clock.Integer] = clock.New(clock.Integer, timing.IQPeriod(cfg.IntIQ), uint64(cfg.Seed), cfg.JitterFrac)
		m.clocks[clock.FloatingPoint] = clock.New(clock.FloatingPoint, timing.IQPeriod(cfg.FPIQ), uint64(cfg.Seed), cfg.JitterFrac)
		m.clocks[clock.LoadStore] = clock.New(clock.LoadStore, cfg.DCache.AdaptPeriod(), uint64(cfg.Seed), cfg.JitterFrac)
		m.clocks[clock.Memory] = clock.New(clock.Memory, timing.PeriodFS(MemFreqMHz), uint64(cfg.Seed), cfg.JitterFrac)
	}
	for p := 0; p < clock.NumDomains; p++ {
		for c := 0; c < clock.NumDomains; c++ {
			m.syncPaths[p][c] = clock.NewSyncPath(m.clocks[p], m.clocks[c])
		}
	}
	m.fePeriod = m.clocks[clock.FrontEnd].CurrentPeriod()
	m.lsPeriod = m.clocks[clock.LoadStore].CurrentPeriod()
	m.setICacheLatencies()
	m.setDCacheLatencies()

	// Caches and predictor.
	if cfg.Mode == Synchronous {
		ic := timing.SyncICacheSpecAt(cfg.SyncICache)
		m.icache = cache.New(cache.Geometry{
			Name: "L1I", Sets: ic.SizeKB * 1024 / LineBytes / ic.Assoc,
			Ways: ic.Assoc, LineBytes: LineBytes,
		})
		ds := cfg.DCache.Spec()
		m.dcache = cache.New(cache.Geometry{
			Name: "L1D", Sets: ds.L1SizeKB * 1024 / LineBytes / ds.Assoc,
			Ways: ds.Assoc, LineBytes: LineBytes,
		})
		m.l2 = cache.New(cache.Geometry{
			Name: "L2", Sets: ds.L2SizeKB * 1024 / L2LineBytes / ds.Assoc,
			Ways: ds.Assoc, LineBytes: L2LineBytes,
		})
		m.syncPred = bpred.New(ic.BPred)
	} else {
		// Adaptive geometry: physically maximal, partitioned by ways; the
		// sets-resized front-end variant is direct mapped at the selected
		// set count instead.
		gi, gd, gl2 := adaptiveGeometry()
		if cfg.ICacheBySets {
			gi = cache.Geometry{Name: "L1I", Sets: cfg.ICache.SetsSpec().Sets, Ways: 1, LineBytes: LineBytes}
		}
		m.icache, m.dcache, m.l2 = cache.New(gi), cache.New(gd), cache.New(gl2)
		ab := cfg.Mode == PhaseAdaptive
		if !cfg.ICacheBySets {
			m.icache.Configure(int(cfg.ICache)+1, ab)
		}
		m.dcache.Configure(dcacheWaysA(cfg.DCache), ab)
		m.l2.Configure(dcacheWaysA(cfg.DCache), ab)
		m.bank = bpred.NewBank(cfg.ICache)
	}

	// Pools (the windows are zero-valued fields).
	m.intFU = newFUPool(IntALUs)
	m.intMul = newFUPool(IntMulDivs)
	m.fpFU = newFUPool(FPALUs)
	m.fpMul = newFUPool(FPMulDivs)

	return m
}

// adaptiveGeometry returns the adaptive machines' physically maximal
// cache geometries, partitioned by ways: 16KB 4-way L1I, 32KB 8-way L1D,
// 256KB 8-way L2.
func adaptiveGeometry() (i, d, l2 cache.Geometry) {
	return cache.Geometry{Name: "L1I", Sets: 16 * 1024 / LineBytes, Ways: 4, LineBytes: LineBytes},
		cache.Geometry{Name: "L1D", Sets: 32 * 1024 / LineBytes, Ways: 8, LineBytes: LineBytes},
		cache.Geometry{Name: "L2", Sets: 256 * 1024 / L2LineBytes, Ways: 8, LineBytes: L2LineBytes}
}

// dcacheWaysA maps a Table 1 configuration to the number of A-partition
// ways in the physically 8-way adaptive caches.
func dcacheWaysA(c timing.DCacheConfig) int { return c.Spec().Assoc }

// Source returns the bound instruction source.
func (m *Machine) Source() InstSource { return m.trace }

// Clock returns a domain clock (for tests).
func (m *Machine) Clock(d clock.Domain) *clock.Clock { return m.clocks[d] }

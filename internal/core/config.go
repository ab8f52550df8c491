// Package core implements the adaptive GALS (MCD) processor model: a
// trace-driven, cycle-level timing simulator with four independently
// clocked domains plus fixed-frequency main memory, resizable structures in
// every domain, inter-domain synchronization costs, and the paper's
// Program-Adaptive and Phase-Adaptive control modes (paper Sections 2-3).
//
// The pipeline model is a one-pass timestamp simulation: each dynamic
// instruction's lifecycle times (fetch, rename, issue, complete, commit)
// are computed from dependence, resource-window, bandwidth and latency
// constraints, every event quantized to the owning domain's clock edges.
// This style processes each instruction exactly once, making the exhaustive
// design-space sweeps of Section 4 tractable while preserving the relative
// timing behaviour the paper's conclusions rest on.
package core

import (
	"fmt"
	"strings"

	"gals/internal/control"
	"gals/internal/timing"
)

// Mode selects the machine organization under test.
type Mode int

const (
	// Synchronous is a fully synchronous processor: one global clock at
	// the slowest structure's frequency, optimized (non-resizable)
	// structures from Tables 1 and 3, and the shorter mispredict penalty.
	Synchronous Mode = iota
	// ProgramAdaptive is the adaptive MCD machine locked to one
	// configuration for the whole run (chosen offline by exhaustive
	// search, Section 4); caches run A-only.
	ProgramAdaptive
	// PhaseAdaptive is the adaptive MCD machine with the on-line
	// controllers of Section 3 enabled: Accounting Caches in A/B mode and
	// ILP-tracked issue queues, reconfiguring at run time.
	PhaseAdaptive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Synchronous:
		return "synchronous"
	case ProgramAdaptive:
		return "program-adaptive"
	case PhaseAdaptive:
		return "phase-adaptive"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fixed microarchitectural parameters (paper Table 5).
const (
	FetchQueueEntries = 16
	DecodeWidth       = 8
	IssueWidth        = 6
	RetireWidth       = 11
	LSQEntries        = 64
	PhysIntRegs       = 96
	PhysFPRegs        = 96
	ROBEntries        = 256

	IntALUs    = 4
	IntMulDivs = 1
	FPALUs     = 4
	FPMulDivs  = 1

	// Mispredict penalties: front-end + integer cycles (Table 5). The
	// adaptive machine is over-pipelined at its lower frequencies and
	// pays one extra front-end and two extra integer cycles.
	SyncMispredictFE   = 9
	SyncMispredictInt  = 7
	AdaptMispredictFE  = 10
	AdaptMispredictInt = 9

	// frontDepth is the fetch-to-dispatch latency in front-end cycles
	// (steady-state fill only; refill after flushes is charged through
	// the mispredict penalty).
	frontDepth = 2

	// DCachePorts is the number of L1-D accesses per load/store cycle.
	DCachePorts = 2
	// MSHREntries bounds outstanding misses (memory-level parallelism).
	MSHREntries = 8

	// CacheIntervalInstrs is the paper's Accounting Cache decision interval
	// (Section 3.1: every 15K instructions). The machine no longer hard-wires
	// it — the run's policy sets the cadence — but the "paper" and "interval"
	// defaults resolve to this value.
	CacheIntervalInstrs = control.PaperCacheInterval

	// MemFreqMHz is the fixed frequency of the memory interface domain.
	MemFreqMHz = 1000

	// LineBytes is the L1 line size; L2LineBytes the L2 line size.
	LineBytes   = 64
	L2LineBytes = 128
)

// Config selects one machine point. The zero value is not valid; start
// from DefaultSync or DefaultAdaptive.
type Config struct {
	// Mode picks the organization.
	Mode Mode

	// SyncICache indexes timing.SyncICacheSpecs() (Table 3) and is used
	// only in Synchronous mode.
	SyncICache int
	// ICache is the adaptive front-end configuration (Table 2), used in
	// the adaptive modes (initial configuration for PhaseAdaptive).
	ICache timing.ICacheConfig
	// ICacheBySets selects the sets-resized (always direct-mapped) front
	// end of the paper's Section 7 future work instead of the ways-based
	// Table 2 design. ICache then selects the size class. Supported in
	// ProgramAdaptive mode (the Accounting Cache's exploration-free
	// statistics do not extend to index-changing resizes, so the
	// PhaseAdaptive front-end controller requires the ways-based design).
	ICacheBySets bool
	// DCache is the joint L1-D/L2 configuration (Table 1). In
	// Synchronous mode the optimal organization of the same shape is
	// used; in adaptive modes the adaptive organization.
	DCache timing.DCacheConfig
	// IntIQ and FPIQ are the issue queue sizes (initial sizes for
	// PhaseAdaptive).
	IntIQ, FPIQ timing.IQSize

	// Seed drives the PLL lock-time draw and clock jitter.
	Seed int64
	// JitterFrac is the per-edge clock jitter as a fraction of the
	// period (0 disables).
	JitterFrac float64
	// PLLScale scales the PLL lock-time distribution. The paper's 10-20us
	// lock times suit its 100M-instruction windows; scaled-down windows
	// (Section 4 of DESIGN.md) scale the lock proportionally. 0 means 1.0.
	PLLScale float64
	// IQHysteresis is the number of consecutive agreeing ILP intervals
	// required before an issue queue resize (PhaseAdaptive); 0 means 1.
	IQHysteresis int
	// DisableCacheAdapt and DisableIQAdapt freeze the respective
	// controllers in PhaseAdaptive mode (for ablation studies).
	DisableCacheAdapt bool
	DisableIQAdapt    bool
	// RecordTrace enables reconfiguration-event recording (Figure 7).
	RecordTrace bool

	// Policy names the adaptation policy driving PhaseAdaptive
	// reconfiguration decisions; "" selects "paper", the exact Section 3
	// controllers. See internal/control for the registry ("paper",
	// "interval", "frozen", "feedback", plus "learned" from internal/learn)
	// and gals.Policies for discovery. Valid only in PhaseAdaptive mode —
	// the other modes take no decisions.
	Policy string
	// PolicyParams parameterizes the policy as "key=value[,key=value...]"
	// (e.g. "interval=7500,hysteresis=1" for the "interval" policy).
	// Omitted keys take the policy's declared defaults.
	PolicyParams string
	// PolicyBlob is the structured artifact of policies whose state is not
	// expressible as flat floats — the "learned" policy's trained weights,
	// produced by the training pipeline (internal/learn, galsim
	// -train-policy) and persisted as a sidecar entry in the result cache.
	// Its canonical digest (control.BlobDigest) is part of every cache and
	// memo key a config reaches, so two runs share an entry only when they
	// agree on the exact artifact bytes.
	PolicyBlob string `json:",omitempty"`
}

// WithPolicy returns a copy of c selecting the named adaptation policy with
// the given "key=value,..." parameters (both may be empty for the paper
// defaults). The copy still needs Validate before use.
func (c Config) WithPolicy(name, params string) Config {
	c.Policy, c.PolicyParams = name, params
	return c
}

// DefaultSync returns the best-overall fully synchronous configuration
// found by this reproduction's design-space sweep: 16-entry queues and a
// 64KB direct-mapped I-cache as in the paper (Section 4), with the
// 64KB/512KB 2-way cache hierarchy — one step above the paper's 32KB/256KB
// direct-mapped pair; the global clock (1.21 GHz, set by the I-cache) is
// identical either way. See EXPERIMENTS.md for the deviation note.
func DefaultSync() Config {
	idx, _ := timing.SyncICacheIndexByName("64k1W")
	return Config{
		Mode:       Synchronous,
		SyncICache: idx,
		DCache:     timing.DCache64K2W,
		IntIQ:      timing.IQ16,
		FPIQ:       timing.IQ16,
		Seed:       42,
	}
}

// DefaultAdaptive returns the adaptive MCD base configuration: every
// structure at its smallest size and highest clock rate (Section 2).
func DefaultAdaptive(mode Mode) Config {
	if mode == Synchronous {
		panic("core: DefaultAdaptive requires an adaptive mode")
	}
	return Config{
		Mode:   mode,
		ICache: timing.ICache16K1W,
		DCache: timing.DCache32K1W,
		IntIQ:  timing.IQ16,
		FPIQ:   timing.IQ16,
		Seed:   42,
	}
}

// ParseMachine returns the default configuration of the machine that a
// mode name and an I-cache name select, as galsim's -mode and -icache flags
// and galsd's mode and icache fields spell them. mode is "sync", "program"
// or "phase". icache is a Table 3 name in sync mode (e.g. "64k1W") and a
// Table 2 name, in any case, in the adaptive modes (e.g. "16k1W"); ""
// keeps the mode's default. An error names the unknown mode or I-cache and
// carries no package prefix, so each caller prefixes its own.
func ParseMachine(mode, icache string) (Config, error) {
	switch mode {
	case "sync":
		cfg := DefaultSync()
		if icache != "" {
			idx, ok := timing.SyncICacheIndexByName(icache)
			if !ok {
				return cfg, fmt.Errorf("unknown sync i-cache %q", icache)
			}
			cfg.SyncICache = idx
		}
		return cfg, nil
	case "program", "phase":
		cfg := DefaultAdaptive(ProgramAdaptive)
		if mode == "phase" {
			cfg.Mode = PhaseAdaptive
		}
		if icache == "" {
			return cfg, nil
		}
		for _, c := range timing.ICacheConfigs() {
			if strings.EqualFold(c.String(), icache) {
				cfg.ICache = c
				return cfg, nil
			}
		}
		return cfg, fmt.Errorf("unknown adaptive i-cache %q", icache)
	}
	return Config{}, fmt.Errorf("unknown mode %q", mode)
}

// GlobalPeriod returns the single clock period of a Synchronous config:
// the slowest of its structures' optimal organizations.
func (c Config) GlobalPeriod() timing.FS {
	if c.Mode != Synchronous {
		panic("core: GlobalPeriod on non-synchronous config")
	}
	f := timing.SyncICacheSpecAt(c.SyncICache).MHz
	if d := c.DCache.Spec().OptimalMHz; d < f {
		f = d
	}
	if q := timing.IQFreqMHz(int(c.IntIQ)); q < f {
		f = q
	}
	if q := timing.IQFreqMHz(int(c.FPIQ)); q < f {
		f = q
	}
	return timing.PeriodFS(f)
}

// Label returns a compact description of the configuration for tables.
func (c Config) Label() string {
	switch c.Mode {
	case Synchronous:
		return fmt.Sprintf("sync[i$=%s d$=%s iq=%d fq=%d]",
			timing.SyncICacheSpecAt(c.SyncICache).Name, c.DCache, c.IntIQ, c.FPIQ)
	default:
		ic := c.ICache.String()
		if c.ICacheBySets {
			ic = c.ICache.SetsSpec().Name
		}
		pol := ""
		if p := c.policyLabel(); p != "" {
			pol = " pol=" + p
		}
		return fmt.Sprintf("%s[i$=%s d$=%s iq=%d fq=%d%s]", c.Mode, ic, c.DCache, c.IntIQ, c.FPIQ, pol)
	}
}

// policyLabel renders the non-default policy selection for Label: "" for
// the default paper controllers (so pre-existing labels are unchanged),
// otherwise the name with any explicit parameters in braces and, for
// blob-carrying policies, a short artifact digest — two learned machines
// with different weights must label differently.
func (c Config) policyLabel() string {
	name := c.Policy
	if (name == "" || name == control.DefaultPolicy) && c.PolicyParams == "" && c.PolicyBlob == "" {
		return ""
	}
	if name == "" {
		name = control.DefaultPolicy
	}
	if c.PolicyParams != "" {
		name += "{" + c.PolicyParams + "}"
	}
	if c.PolicyBlob != "" {
		name += "#" + control.BlobDigest(c.PolicyBlob)[:8]
	}
	return name
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Mode == Synchronous {
		if c.SyncICache < 0 || c.SyncICache >= timing.NumSyncICacheSpecs {
			return fmt.Errorf("core: sync i-cache index %d out of range", c.SyncICache)
		}
	} else {
		if c.ICache < 0 || int(c.ICache) >= timing.NumICacheConfigs {
			return fmt.Errorf("core: i-cache config %d out of range", c.ICache)
		}
		if c.ICacheBySets && c.Mode == PhaseAdaptive {
			return fmt.Errorf("core: sets-resized i-cache requires ProgramAdaptive mode")
		}
	}
	if c.DCache < 0 || int(c.DCache) >= timing.NumDCacheConfigs {
		return fmt.Errorf("core: d-cache config %d out of range", c.DCache)
	}
	for _, s := range []timing.IQSize{c.IntIQ, c.FPIQ} {
		switch s {
		case timing.IQ16, timing.IQ32, timing.IQ48, timing.IQ64:
		default:
			return fmt.Errorf("core: issue queue size %d invalid", s)
		}
	}
	if c.Mode == PhaseAdaptive {
		if err := control.ValidateSelection(c.Policy, c.PolicyParams, c.PolicyBlob); err != nil {
			return err
		}
	} else if c.Policy != "" || c.PolicyParams != "" || c.PolicyBlob != "" {
		return fmt.Errorf("core: adaptation policy %q set on %s config (policies decide only in PhaseAdaptive mode)", c.Policy, c.Mode)
	}
	return nil
}

// Reconfiguration mechanism (paper Section 3.3). The decisions themselves —
// which configuration each domain moves to — live in the pluggable policy
// layer (internal/control); the machine snapshots per-domain observations at
// interval boundaries, hands them to the run's controller, and commits the
// returned actions: the simpler of (current, target) configuration runs
// during the PLL lock, the domain clock switches at lock completion, and
// applyPending installs the final configuration once the pipeline passes
// that time.
package core

import (
	"fmt"

	"gals/internal/clock"
	"gals/internal/control"
	"gals/internal/queue"
	"gals/internal/timing"
	"gals/internal/workload"
)

// lockTime draws one PLL lock duration, scaled for shortened simulation
// windows (Config.PLLScale).
func (m *Machine) lockTime() timing.FS {
	d := m.pll.LockTime()
	scale := m.cfg.PLLScale
	if scale <= 0 {
		scale = 1
	}
	return timing.FS(float64(d) * scale)
}

// applyPending commits any reconfigurations whose PLL lock completed before
// the pipeline's current position.
func (m *Machine) applyPending() {
	now := m.lastCommit
	if p := m.pendingFE; p != nil && now >= p.at {
		m.iCfg = timing.ICacheConfig(p.final)
		m.setICacheLatencies()
		m.configureI(p.final+1, true)
		m.bank.SetActive(m.iCfg)
		m.fePeriod = m.clocks[clock.FrontEnd].CurrentPeriod()
		m.pendingFE = nil
	}
	if p := m.pendingLS; p != nil && now >= p.at {
		m.dCfg = timing.DCacheConfig(p.final)
		m.setDCacheLatencies()
		m.configureD(dcacheWaysA(m.dCfg), true)
		m.lsPeriod = m.clocks[clock.LoadStore].CurrentPeriod()
		m.pendingLS = nil
	}
	if p := m.pendingIntIQ; p != nil && now >= p.at {
		m.intIQ = p.final
		m.pendingIntIQ = nil
	}
	if p := m.pendingFPIQ; p != nil && now >= p.at {
		m.fpIQ = p.final
		m.pendingFPIQ = nil
	}
}

// reconfigNames names the resized structures, indexed by reconfigKind.
var reconfigNames = [...]string{"dcache", "icache", "int-iq", "fp-iq"}

// record notes a reconfiguration event: the run's Stats counter, the
// per-direction fold for the process-wide metric, the telemetry event when
// a sampler is attached, and the Figure 7 trace when requested. from is the
// structure's configuration index before this decision.
func (m *Machine) record(kind reconfigKind, label string, index, from int) {
	m.stats.Reconfigs++
	m.dirCounts[kind][directionIndex(from, index)]++
	if t := m.tel; t != nil {
		t.noteReconfig(m, reconfigNames[kind], label, index, from)
	}
	if !m.cfg.RecordTrace {
		return
	}
	m.stats.ReconfigEvents = append(m.stats.ReconfigEvents, ReconfigEvent{
		Instr:  m.count,
		Kind:   reconfigNames[kind],
		Config: label,
		Index:  index,
	})
}

// configureI applies an I-cache partitioning: directly in the fused loop,
// onto the timing stage's shadow configuration in a streamed run (the
// stream stands in for the cache object for the duration of the run).
func (m *Machine) configureI(waysA int, b bool) {
	if p := m.fs; p != nil {
		p.setI(waysA, b)
		return
	}
	m.icache.Configure(waysA, b)
}

// configureD applies the paired L1-D/L2 partitioning; see configureI.
func (m *Machine) configureD(waysA int, b bool) {
	if p := m.fs; p != nil {
		p.setD(waysA, b)
		return
	}
	m.dcache.Configure(waysA, b)
	m.l2.Configure(waysA, b)
}

// cacheDecide hands one completed accounting interval (Section 3.1) to the
// policy, commits its decisions at commit time `now`, and starts the next
// interval. The statistics come from the caches in the fused loop and from
// the timing stage's own tally of the streamed positions otherwise.
func (m *Machine) cacheDecide(now timing.FS) {
	var st intervalSnapshot
	if p := m.fs; p != nil {
		st = p.intervalStats()
	} else {
		st = intervalSnapshot{i: m.icache.Stats(), d: m.dcache.Stats(), l2: m.l2.Stats()}
		m.icache.ResetStats()
		m.dcache.ResetStats()
		m.l2.ResetStats()
	}
	if t := m.tel; t != nil {
		t.noteCacheInterval(m, &st)
	}
	obs := control.CacheObs{
		ICache:      st.i,
		DCacheL1:    st.d,
		L2:          st.l2,
		ICfg:        m.iCfg,
		DCfg:        m.dCfg,
		FEPeriod:    m.fePeriod,
		LSPeriod:    m.lsPeriod,
		FEPending:   m.pendingFE != nil,
		LSPending:   m.pendingLS != nil,
		L2LineBytes: L2LineBytes,
	}
	for _, a := range m.ctl.DecideCaches(obs, m.actBuf[:0]) {
		m.commitReconfig(a, now)
	}
}

// iqDecide hands a completed ILP-tracking interval (Section 3.2) to the
// policy and commits its resizes, at rename time `now`.
func (m *Machine) iqDecide(now timing.FS) {
	m.iqDecideSamples(now, m.tracker.Samples())
}

// iqDecideSamples is iqDecide on explicitly provided samples — the form a
// streamed run uses, where the tracker ran in the stream builder.
func (m *Machine) iqDecideSamples(now timing.FS, samples [4]queue.Sample) {
	if t := m.tel; t != nil {
		t.noteIQInterval(m, samples)
	}
	obs := control.IQObs{
		Samples:    samples,
		IntIQ:      m.intIQ,
		FPIQ:       m.fpIQ,
		IntPending: m.pendingIntIQ != nil,
		FPPending:  m.pendingFPIQ != nil,
	}
	for _, a := range m.ctl.DecideIQs(obs, m.actBuf[:0]) {
		m.commitReconfig(a, now)
	}
}

// commitReconfig initiates one policy decision: the transitional (simpler)
// configuration takes effect immediately, the domain clock is scheduled to
// switch when the PLL locks, and applyPending finalizes. A decision for a
// domain whose previous change is still locking is dropped — SetPeriodAt
// cannot rewrite scheduled clock history — and an out-of-range target is a
// policy bug, reported by panic.
func (m *Machine) commitReconfig(a control.Reconfig, now timing.FS) {
	switch a.Kind {
	case control.ICache:
		if m.pendingFE != nil {
			return
		}
		if a.Target < 0 || a.Target >= timing.NumICacheConfigs {
			panic(fmt.Sprintf("core: policy %q targets i-cache config %d", m.cfg.Policy, a.Target))
		}
		best := timing.ICacheConfig(a.Target)
		from := int(m.iCfg)
		trans := best
		if m.iCfg < trans {
			trans = m.iCfg
		}
		// Run the simpler (smaller) configuration during the PLL lock:
		// downsize at the start when speeding up, upsize at the end when
		// slowing down (Section 3.1).
		m.configureI(int(trans)+1, true)
		m.bank.SetActive(trans)
		lockDone := now + m.lockTime()
		m.clocks[clock.FrontEnd].SetPeriodAt(lockDone, best.AdaptPeriod())
		m.pendingFE = &pendingReconfig{at: lockDone, final: int(best)}
		m.record(reconfigICache, best.String(), int(best), from)

	case control.DCache:
		if m.pendingLS != nil {
			return
		}
		if a.Target < 0 || a.Target >= timing.NumDCacheConfigs {
			panic(fmt.Sprintf("core: policy %q targets d-cache config %d", m.cfg.Policy, a.Target))
		}
		best := timing.DCacheConfig(a.Target)
		from := int(m.dCfg)
		trans := best
		if m.dCfg < trans {
			trans = m.dCfg
		}
		m.configureD(dcacheWaysA(trans), true)
		lockDone := now + m.lockTime()
		m.clocks[clock.LoadStore].SetPeriodAt(lockDone, best.AdaptPeriod())
		m.pendingLS = &pendingReconfig{at: lockDone, final: int(best)}
		m.record(reconfigDCache, best.String(), int(best), from)

	case control.IntIQ:
		if m.pendingIntIQ != nil {
			return
		}
		size := timing.IQSize(a.Target)
		from := timing.IQIndex(m.intIQ)
		trans := size
		if m.intIQ < trans {
			trans = m.intIQ
		}
		m.intIQ = trans
		lockDone := now + m.lockTime()
		m.clocks[clock.Integer].SetPeriodAt(lockDone, timing.IQPeriod(size))
		m.pendingIntIQ = &pendingIQ{at: lockDone, final: size}
		m.record(reconfigIntIQ, fmt.Sprintf("%d", size), timing.IQIndex(size), from)

	case control.FPIQ:
		if m.pendingFPIQ != nil {
			return
		}
		size := timing.IQSize(a.Target)
		from := timing.IQIndex(m.fpIQ)
		trans := size
		if m.fpIQ < trans {
			trans = m.fpIQ
		}
		m.fpIQ = trans
		lockDone := now + m.lockTime()
		m.clocks[clock.FloatingPoint].SetPeriodAt(lockDone, timing.IQPeriod(size))
		m.pendingFPIQ = &pendingIQ{at: lockDone, final: size}
		m.record(reconfigFPIQ, fmt.Sprintf("%d", size), timing.IQIndex(size), from)

	default:
		panic(fmt.Sprintf("core: policy %q returned unknown reconfig kind %d", m.cfg.Policy, a.Kind))
	}
}

// RunWorkload builds a machine for spec and cfg and runs a window of n
// instructions on a live trace.
func RunWorkload(spec workload.Spec, cfg Config, n int64) *Result {
	return NewMachine(spec, cfg).Run(n)
}

// RunWorkloadParallel is RunWorkload; degree is ignored. It exists only
// because the separate bench/ module's galsbench calls it at degrees 1 and
// 2, and keeps its signature until that benchmark changes. Call
// RunWorkload instead.
func RunWorkloadParallel(spec workload.Spec, cfg Config, n int64, degree int) *Result {
	return RunWorkload(spec, cfg, n)
}

// RunSource builds a machine for cfg over an existing instruction source (a
// live trace or a recorded replay) and runs a window of n instructions.
// Replaying a recording produces a Result bit-identical to RunWorkload on
// the same spec and configuration.
func RunSource(src InstSource, cfg Config, n int64) *Result {
	return NewMachineSource(src, cfg).Run(n)
}

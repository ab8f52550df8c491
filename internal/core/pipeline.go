package core

import (
	"context"

	"gals/internal/cache"
	"gals/internal/clock"
	"gals/internal/isa"
	"gals/internal/timing"
)

func maxFS(a, b timing.FS) timing.FS {
	if a > b {
		return a
	}
	return b
}

// srcReady returns the time operand r is usable in the consumer domain,
// including cross-domain synchronization cost.
func (m *Machine) srcReady(r isa.Reg, consumer clock.Domain) timing.FS {
	if !r.Valid() {
		return 0
	}
	t := m.regReady[r]
	if t == 0 {
		return 0
	}
	prod := m.regDomain[r]
	if prod == consumer {
		return t
	}
	return m.syncPaths[prod][consumer].Sync(t)
}

// writeDest records a register result produced in domain d at time t.
func (m *Machine) writeDest(r isa.Reg, d clock.Domain, t timing.FS) {
	if r.Valid() {
		m.regReady[r] = t
		m.regDomain[r] = d
	}
}

// mispredictPenalties returns the (front-end, integer) cycle penalties for
// the machine's organization (Table 5).
func (m *Machine) mispredictPenalties() (int, int) {
	if m.cfg.Mode == Synchronous {
		return SyncMispredictFE, SyncMispredictInt
	}
	return AdaptMispredictFE, AdaptMispredictInt
}

// setICacheLatencies caches the A latency and extra B latency of the
// current front-end configuration (optimized Table 3 and sets-resized
// caches have no B partition).
func (m *Machine) setICacheLatencies() {
	switch {
	case m.cfg.Mode == Synchronous:
		m.iLatA, m.iLatB = timing.SyncICacheSpecAt(m.cfg.SyncICache).ALat, 0
	case m.cfg.ICacheBySets:
		m.iLatA, m.iLatB = m.iCfg.SetsSpec().ALat, 0
	default:
		s := m.iCfg.Spec()
		m.iLatA, m.iLatB = s.ALat, s.BLat
	}
}

// setDCacheLatencies caches the L1 and L2 A latencies and extra B
// latencies of the current load/store configuration (the synchronous
// machine's optimized caches have no B partition).
func (m *Machine) setDCacheLatencies() {
	s := m.dCfg.Spec()
	m.l1LatA, m.l2LatA = s.L1ALat, s.L2ALat
	if m.cfg.Mode == Synchronous {
		m.l1LatB, m.l2LatB = 0, 0
	} else {
		m.l1LatB, m.l2LatB = s.L1BLat, s.L2BLat
	}
}

// icacheLatencies returns the A latency and extra B latency of the current
// front-end configuration.
func (m *Machine) icacheLatencies() (int, int) { return m.iLatA, m.iLatB }

// dcacheLatencies returns (L1 A, L1 extra B, L2 A, L2 extra B) latencies of
// the current load/store configuration.
func (m *Machine) dcacheLatencies() (int, int, int, int) {
	return m.l1LatA, m.l1LatB, m.l2LatA, m.l2LatB
}

// l2AccessI performs the unified-L2 access for an I-side line fill: the
// functional access live in the fused loop, classification of the streamed
// MRU position under the shadow configuration otherwise.
func (m *Machine) l2AccessI(addr uint64, t timing.FS) timing.FS {
	if p := m.fs; p != nil {
		return m.l2Timed(p.classL2(), t)
	}
	return m.l2Timed(m.l2.Access(addr, false), t)
}

// l2AccessD is l2AccessI for D-side line fills (loads and store
// write-allocates).
func (m *Machine) l2AccessD(addr uint64, t timing.FS, write bool) timing.FS {
	if p := m.fs; p != nil {
		return m.l2Timed(p.classL2(), t)
	}
	return m.l2Timed(m.l2.Access(addr, write), t)
}

// l2Timed applies the timing of a unified-L2 access of the given class for
// a line fill request arriving in the load/store domain at time t (already
// synchronized), returning the completion time in the load/store domain.
func (m *Machine) l2Timed(cls cache.Class, t timing.FS) timing.FS {
	ls := m.clocks[clock.LoadStore]
	_, _, l2A, l2B := m.dcacheLatencies()
	switch cls {
	case cache.AHit:
		m.stats.L2A++
		return ls.After(t, l2A)
	case cache.BHit:
		m.stats.L2B++
		return ls.After(t, l2A+l2B)
	default:
		m.stats.L2Miss++
		// Miss-under-probe: the B-partition probe overlaps the memory
		// request, so a full miss pays only the A latency here.
		miss := ls.After(t, l2A)
		// Bounded number of outstanding misses.
		miss = maxFS(miss, m.mshr.floor(MSHREntries))
		memClk := m.clocks[clock.Memory]
		ms := m.syncPaths[clock.LoadStore][clock.Memory].Sync(miss)
		mdone := m.memc.Access(ms, L2LineBytes)
		m.stats.MemAccesses++
		done := m.syncPaths[clock.Memory][clock.LoadStore].Sync(memClk.EdgeAtOrAfter(mdone))
		m.mshr.push(done)
		return done
	}
}

// step advances the machine by one dynamic instruction.
//
// Nearly every clock query here and in the exec functions starts at an edge
// of its clock's final epoch, so each site computes its edges as sums of
// CurrentPeriod and calls the Clock methods, which the compiler cannot
// inline, only when the inlined Clock.OnEdge test fails (`make inline`).
// Queue crossings (clock.Align) make no such test: in a multiple-clock-domain
// run their times come from another clock and almost never lie on the
// consumer's grid.
func (m *Machine) step(in *isa.Inst) {
	fe := m.clocks[clock.FrontEnd]
	m.applyPending()

	// ------------------------------------------------------------------
	// Fetch. Each basic block occupies one I-cache line; a new line (or
	// exhausting the group's decode slots) starts a new fetch group.
	line := in.PC >> 6
	if line != m.curLine || m.lineLeft == 0 {
		start := maxFS(m.nextLineAt, m.minFetch)
		start = maxFS(start, m.fetchQ.floor(FetchQueueEntries))
		// The group is ready n cycles after start. The next line may start
		// a cycle after start unless the access keeps the cache busy until
		// the group is ready.
		n, busy, miss := 1, false, false // same line: line buffer hit
		if line != m.curLine {
			aLat, bLat := m.icacheLatencies()
			var icls cache.Class
			if p := m.fs; p != nil {
				icls = p.classI()
			} else {
				icls = m.icache.Access(in.PC, false)
			}
			switch icls {
			case cache.AHit:
				m.stats.ICacheA++
				n = aLat // pipelined hit path
			case cache.BHit:
				m.stats.ICacheB++
				n, busy = aLat+bLat, true // cache busy during B access
			default:
				m.stats.ICacheMiss++
				// Miss-under-probe: B probe overlaps the L2 request.
				n, busy, miss = aLat, true, true
			}
		}
		p := fe.CurrentPeriod()
		m.groupReady, m.nextLineAt = start+timing.FS(n)*p, start+p
		if !fe.OnEdge(start) {
			start = fe.EdgeAtOrAfter(start)
			m.groupReady, m.nextLineAt = fe.After(start, n), fe.NextEdge(start)
		}
		if miss {
			req := m.syncPaths[clock.FrontEnd][clock.LoadStore].Sync(m.groupReady)
			done := m.l2AccessI(in.PC&^uint64(L2LineBytes-1), req)
			m.groupReady = fe.EdgeAtOrAfter(m.syncPaths[clock.LoadStore][clock.FrontEnd].Sync(done))
		}
		if busy {
			m.nextLineAt = m.groupReady
		}
		m.curLine = line
		m.lineLeft = DecodeWidth
	}
	m.lineLeft--
	fetch := maxFS(m.groupReady, m.fetchQ.floor(FetchQueueEntries))

	// ------------------------------------------------------------------
	// Rename / dispatch (front-end domain, in order).
	dec, p := m.fetchQ.floor(DecodeWidth), fe.CurrentPeriod()
	rn := maxFS(fetch+frontDepth*p, dec+p)
	if !fe.OnEdge(fetch) || !fe.OnEdge(dec) {
		rn = maxFS(fe.After(fetch, frontDepth), fe.NextEdge(dec))
	}
	rn = maxFS(rn, m.lastRename)
	rn = maxFS(rn, m.rob.floor(ROBEntries))
	if in.Dest.Valid() {
		if in.Dest.IsFP() {
			rn = maxFS(rn, m.fpRegs.floor(PhysFPRegs-isa.NumFPRegs))
		} else {
			rn = maxFS(rn, m.intRegs.floor(PhysIntRegs-isa.NumIntRegs))
		}
	}
	// Issue-queue and LSQ backpressure propagates to rename.
	if in.Class.IsFP() {
		rn = maxFS(rn, clock.Align(m.clocks[clock.FloatingPoint], fe, m.fpQ.floor(int(m.fpIQ))))
	} else if in.Class != isa.Jump {
		rn = maxFS(rn, clock.Align(m.clocks[clock.Integer], fe, m.intQ.floor(int(m.intIQ))))
	}
	if in.Class.IsMem() {
		rn = maxFS(rn, m.lsq.floor(LSQEntries))
	}
	if !fe.OnEdge(rn) {
		rn = fe.EdgeAtOrAfter(rn)
	}
	m.lastRename = rn
	m.fetchQ.push(rn)

	// ILP tracking happens at rename (Section 3.2). In a streamed run the
	// stream builder ran the tracker; a fired interval's samples are
	// stored with it and the decision commits here, at the same point.
	if p := m.fs; p != nil {
		if p.fired(m.count) {
			m.iqDecideSamples(rn, p.cur.popSamples())
		}
	} else if m.tracker != nil && !m.cfg.DisableIQAdapt {
		if m.tracker.Observe(in) {
			m.iqDecide(rn)
			m.tracker.Reset()
		}
	}

	// ------------------------------------------------------------------
	// Execute by class.
	var complete timing.FS
	var execDomain clock.Domain

	switch {
	case in.Class == isa.Jump:
		// Resolved at decode; no queue or execution resources.
		complete, execDomain = rn, clock.FrontEnd

	case in.Class.IsFP():
		complete = m.execCompute(in, clock.FloatingPoint)
		execDomain = clock.FloatingPoint
		m.stats.FPOps++

	case in.Class == isa.Load:
		complete = m.execLoad(in)
		execDomain = clock.LoadStore
		m.stats.Loads++

	case in.Class == isa.Store:
		complete = m.execStore(in)
		execDomain = clock.LoadStore
		m.stats.Stores++

	default: // integer compute and branches
		complete = m.execCompute(in, clock.Integer)
		execDomain = clock.Integer
		if in.Class == isa.Branch {
			m.resolveBranch(in, complete)
		}
	}
	m.writeDest(in.Dest, execDomain, complete)

	// ------------------------------------------------------------------
	// Commit (in order, retire width per front-end cycle).
	c := maxFS(clock.Align(m.clocks[execDomain], fe, complete), m.lastCommit)
	if ret := m.rob.floor(RetireWidth); fe.OnEdge(ret) && fe.OnEdge(c) {
		p := fe.CurrentPeriod()
		c = maxFS(c, ret+p) + p
	} else {
		c = fe.After(maxFS(c, fe.NextEdge(ret)), 1)
	}
	m.lastCommit = c
	m.rob.push(c)
	if in.Class.IsMem() {
		m.lsq.push(c)
	}
	if in.Dest.Valid() {
		if in.Dest.IsFP() {
			m.fpRegs.push(c)
		} else {
			m.intRegs.push(c)
		}
	}

	// ------------------------------------------------------------------
	// Bookkeeping and phase controllers.
	m.count++
	m.stats.Instructions++
	if m.cfg.Mode != Synchronous {
		m.stats.ICacheInstrs[m.iCfg]++
		m.stats.DCacheInstrs[m.dCfg]++
		m.stats.IntIQInstrs[timing.IQIndex(m.intIQ)]++
		m.stats.FPIQInstrs[timing.IQIndex(m.fpIQ)]++
	}
	if m.cacheEvery > 0 && !m.cfg.DisableCacheAdapt &&
		m.count-m.intervalStart >= m.cacheEvery {
		m.cacheDecide(c)
		m.intervalStart = m.count
		// Closed-loop policies may retune their own cadence between
		// intervals (the paper's controllers return a constant).
		m.cacheEvery = m.ctl.CacheInterval()
	}
}

// execCompute models dispatch, wakeup/select, and execution of a compute
// operation (or branch) in the given domain.
func (m *Machine) execCompute(in *isa.Inst, dom clock.Domain) timing.FS {
	fe := m.clocks[clock.FrontEnd]
	ck := m.clocks[dom]
	enter := clock.Align(fe, ck, m.lastRename) // queue write: sync hidden

	ready := enter + ck.CurrentPeriod() // wakeup
	if !ck.OnEdge(enter) {
		ready = ck.After(enter, 1)
	}
	ready = maxFS(ready, m.srcReady(in.Src1, dom))
	ready = maxFS(ready, m.srcReady(in.Src2, dom))

	var qWin *window
	var alu, mul *fuPool
	if dom == clock.FloatingPoint {
		qWin, alu, mul = &m.fpQ, m.fpFU, m.fpMul
	} else {
		qWin, alu, mul = &m.intQ, m.intFU, m.intMul
		ready = maxFS(ready, m.minIntIssue)
	}
	if q := qWin.floor(IssueWidth); ck.OnEdge(q) && ck.OnEdge(ready) {
		ready = maxFS(ready, q+ck.CurrentPeriod())
	} else {
		ready = ck.EdgeAtOrAfter(maxFS(ready, ck.NextEdge(q)))
	}

	pool := alu
	switch in.Class {
	case isa.IntMult, isa.IntDiv, isa.FPMult, isa.FPDiv, isa.FPSqrt:
		pool = mul
	}
	lat := in.Class.Latency()
	occupancy := lat
	if in.Class.Pipelined() {
		occupancy = 1
	}
	u, start := pool.take(ready)
	qWin.push(start)
	p := ck.CurrentPeriod()
	free, done := start+timing.FS(occupancy)*p, start+timing.FS(lat)*p
	if !ck.OnEdge(start) {
		free, done = ck.After(start, occupancy), ck.After(start, lat)
	}
	pool.avail[u] = free
	return done
}

// resolveBranch checks the prediction and charges the mispredict penalty.
func (m *Machine) resolveBranch(in *isa.Inst, resolve timing.FS) {
	m.stats.Branches++
	var pred bool
	if p := m.fs; p != nil {
		pred = p.predicted(int(m.bank.Active()))
	} else if m.cfg.Mode == Synchronous {
		pred = m.syncPred.Predict(in.PC)
		m.syncPred.Update(in.PC, in.Taken)
	} else {
		pred = m.bank.Predict(in.PC)
		m.bank.Update(in.PC, in.Taken)
	}
	if pred == in.Taken {
		return
	}
	m.stats.Mispredicts++
	fe := m.clocks[clock.FrontEnd]
	ic := m.clocks[clock.Integer]
	penFE, penInt := m.mispredictPenalties()
	m.minFetch = maxFS(m.minFetch, fe.After(m.syncPaths[clock.Integer][clock.FrontEnd].Sync(resolve), penFE))
	m.minIntIssue = maxFS(m.minIntIssue, ic.After(resolve, penInt))
}

// execLoad models address generation in the integer domain followed by the
// data-cache hierarchy access in the load/store domain, including
// store-to-load forwarding.
func (m *Machine) execLoad(in *isa.Inst) timing.FS {
	agDone := m.addrGen(in)
	ls := m.clocks[clock.LoadStore]
	req := clock.Align(m.clocks[clock.Integer], ls, agDone) // LSQ insert: sync hidden
	if q := m.dports.floor(DCachePorts); ls.OnEdge(q) && ls.OnEdge(req) {
		req = maxFS(req, q+ls.CurrentPeriod())
	} else {
		req = ls.EdgeAtOrAfter(maxFS(req, ls.NextEdge(q)))
	}
	m.dports.push(req)

	m.memSeq++
	// Store-to-load forwarding from the youngest older store to the same
	// dword still in the LSQ window.
	var fwd timing.FS
	dword := in.Addr &^ 7
	if e := &m.stores[storeHash(dword)]; e.addr == dword && e.seq >= m.memSeq-LSQEntries {
		fwd = ls.After(maxFS(req, e.ready), 1)
	}

	l1A, l1B, _, _ := m.dcacheLatencies()
	var dcls cache.Class
	if p := m.fs; p != nil {
		dcls = p.classD()
	} else {
		dcls = m.dcache.Access(in.Addr, false)
	}
	// The access completes, or a miss goes to L2, n cycles after req.
	n := l1A
	switch dcls {
	case cache.AHit:
		m.stats.DCacheA++
	case cache.BHit:
		m.stats.DCacheB++
		n += l1B
	default:
		m.stats.DCacheMiss++
	}
	done := req + timing.FS(n)*ls.CurrentPeriod()
	if !ls.OnEdge(req) {
		done = ls.After(req, n)
	}
	if dcls == cache.Miss {
		// Miss-under-probe: B probe overlaps the L2 request.
		done = m.l2AccessD(in.Addr, done, false)
	}
	if fwd != 0 && fwd < done {
		done = fwd
	}
	return done
}

// execStore models address generation and data delivery to the LSQ; the
// cache write happens post-commit and is off the critical path, but the
// functional access keeps contents and accounting statistics exact.
func (m *Machine) execStore(in *isa.Inst) timing.FS {
	agDone := m.addrGen(in)
	ls := m.clocks[clock.LoadStore]
	addrAt := clock.Align(m.clocks[clock.Integer], ls, agDone) // LSQ insert: sync hidden
	dataAt := m.srcReady(in.Src1, clock.LoadStore)
	ready := maxFS(addrAt, dataAt)

	m.memSeq++
	dword := in.Addr &^ 7
	m.stores[storeHash(dword)] = storeEntry{addr: dword, seq: m.memSeq, ready: ready}

	// Post-commit write: functional update now (program order), port use
	// booked at the earliest write time.
	m.dports.push(ready)
	var scls cache.Class
	if p := m.fs; p != nil {
		scls = p.classD()
	} else {
		scls = m.dcache.Access(in.Addr, true)
	}
	if scls == cache.Miss {
		m.stats.DCacheMiss++
		// Write-allocate: fetch the line through L2.
		m.l2AccessD(in.Addr, ready, true)
	} else {
		m.stats.DCacheA++
	}
	return ready
}

// addrGen issues the address computation through the integer scheduler.
func (m *Machine) addrGen(in *isa.Inst) timing.FS {
	fe := m.clocks[clock.FrontEnd]
	ck := m.clocks[clock.Integer]
	enter := clock.Align(fe, ck, m.lastRename) // queue write: sync hidden
	ready := enter + ck.CurrentPeriod()
	if !ck.OnEdge(enter) {
		ready = ck.After(enter, 1)
	}
	base := in.Src1
	if in.Class == isa.Store {
		base = in.Src2
	}
	ready = maxFS(ready, m.srcReady(base, clock.Integer))
	ready = maxFS(ready, m.minIntIssue)
	if q := m.intQ.floor(IssueWidth); ck.OnEdge(q) && ck.OnEdge(ready) {
		ready = maxFS(ready, q+ck.CurrentPeriod())
	} else {
		ready = ck.EdgeAtOrAfter(maxFS(ready, ck.NextEdge(q)))
	}
	u, start := m.intFU.take(ready)
	m.intQ.push(start)
	done := start + ck.CurrentPeriod()
	if !ck.OnEdge(start) {
		done = ck.After(start, 1)
	}
	m.intFU.avail[u] = done
	return done
}

func storeHash(dword uint64) int {
	z := dword * 0x9e3779b97f4a7c15
	return int((z >> 48) & (storeTableSize - 1))
}

// Run executes n instructions and returns the result.
func (m *Machine) Run(n int64) *Result {
	m.useStream(n)
	m.steps(n)
	return m.result()
}

// steps executes n instructions from the machine's own source, a stream
// chunk at a time when the run is streamed.
func (m *Machine) steps(n int64) {
	var in isa.Inst
	for n > 0 {
		k := n
		if p := m.fs; p != nil {
			k = min(k, p.cur.load(m.count))
		}
		for i := int64(0); i < k; i++ {
			m.trace.Next(&in)
			m.step(&in)
		}
		n -= k
	}
}

func (m *Machine) result() *Result {
	noteRun(m.cfg, &m.stats, &m.dirCounts)
	if t := m.tel; t != nil {
		t.Seal(m)
	}
	return &Result{
		Workload: m.trace.Spec().Name,
		Config:   m.cfg,
		TimeFS:   m.lastCommit,
		Stats:    m.stats,
	}
}

// cancelQuantum is how many instructions RunWith executes between
// cancellation checks: the default accounting interval, so a deadline adds
// at most ~one adaptation decision's worth of work and the check amortizes
// to one channel poll per 10k steps (unmeasurable against step cost).
const cancelQuantum = 10_000

// RunOptions are RunWith's execution knobs.
type RunOptions struct {
	// Telemetry, when non-nil, records the run's adaptation series; it is
	// sealed and readable once the run returns. It does not change the
	// Result.
	Telemetry *Telemetry
}

// RunWith executes n instructions under o and returns the result. A nil
// or never-cancellable ctx runs the plain Run loop; otherwise ctx is
// polled every cancelQuantum instructions, and on cancellation the partial
// result is discarded and ctx.Err() returned.
func (m *Machine) RunWith(ctx context.Context, n int64, o RunOptions) (*Result, error) {
	m.tel = o.Telemetry
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // never cancellable: skip the polls
	}
	if ctx == nil {
		return m.Run(n), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.useStream(n)
	for done := int64(0); done < n; {
		q := min(n-done, cancelQuantum)
		m.steps(q)
		done += q
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
	}
	return m.result(), nil
}

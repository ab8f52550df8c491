package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host times are reported at the baseline host's speed. The shared host the
// benchmark was built on drifts by tens of percent over seconds and minutes,
// whatever runs on it, and its CPU time drifts with its wall time: the
// slowdown is contention for the physical core and its caches, not
// preemption, so neither longer runs nor CPU-time clocks remove it. Instead
// the measured window alternates with slots of a fixed reference kernel, and
// each stretch of the window is divided by the host's slowdown around it:
// the reference's measured time over its time on the uncontended baseline
// host.
//
// The reference is a miniature of the simulator's functional work in code
// of its own, which no change to the simulator touches: a two-level
// set-associative LRU cache and a gshare branch predictor driven by a
// synthetic stream. Contention slows it about as much as it slows the
// simulator. A plain xorshift walk over a 4 MiB table tracked the simulator
// less well: on the baseline host, over 20 s stretches in which run-phase-seq's
// median run time varied twofold, its ratio to the xorshift walk varied by
// 27% and its ratio to this model by 15%.

const (
	// refIters is one goroutine's share of a reference pass: about 30 ms
	// on the uncontended baseline host.
	refIters = 1_500_000
	// refChunk is the size of the pieces the goroutines of a pass take from
	// a shared counter, as the sweep pool's and galsd's workers take cells:
	// a goroutine on a faster vCPU takes more of them.
	refChunk = 50_000
	refWays  = 8
	// The model's L1 has 64 sets, its L2 2048 (128 KiB of tags), and its
	// predictor 16384 two-bit counters. Larger L2 models tracked the
	// simulator less well.
	refL1Sets = 64
	refL2Sets = 2048
	refBPSize = 1 << 14
	// refAddrSpace and refCodeSpace bound the synthetic data addresses and
	// branch PCs.
	refAddrSpace = 1 << 24
	refCodeSpace = 1 << 20
)

// refNominal is one reference pass's wall time on the uncontended baseline
// host (2 vCPUs, Intel Xeon, Go 1.24), by the number of goroutines sharing
// it, each on its own model. It is set so that scaled times equal
// the unscaled medians measured in the host's quietest hour: 67.5 ms per
// run-phase-seq run (one goroutine), 5.07 ms per sweep-sync-replay cell and
// 22.9 ms per cold service-mixed request (two goroutines; the two gave the
// same value within 3%).
var refNominal = [...]time.Duration{1: 28500 * time.Microsecond, 2: 30800 * time.Microsecond}

// refModel is one goroutine's reference model.
type refModel struct {
	l1, l2 []uint64 // tags, refWays per set, most recent first
	bp     []uint8
	sink   uint64 // keeps the model's results live
}

// refKernel holds a model for each number of goroutines refNominal lists.
type refKernel struct {
	mem    []byte // mapped outside the Go heap: not in mem_mb_p50, not scanned by the GC
	models []*refModel
}

func newRefKernel() (*refKernel, error) {
	n := len(refNominal) - 1
	l1, l2 := refL1Sets*refWays*8, refL2Sets*refWays*8
	per := l1 + l2 + refBPSize
	mem, err := syscall.Mmap(-1, 0, n*per, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference models: %w", err)
	}
	r := &refKernel{mem: mem}
	words := func(b []byte) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8) }
	for i := 0; i < n; i++ {
		b := mem[i*per : (i+1)*per]
		m := &refModel{l1: words(b[:l1]), l2: words(b[l1 : l1+l2]), bp: b[l1+l2:]}
		// First touch: fault the pages in and fill the caches before any
		// timed pass.
		for c := uint64(0); c < refIters/refChunk; c++ {
			m.run(c)
		}
		r.models = append(r.models, m)
	}
	return r, nil
}

// slowdown runs one pass of n×refIters steps on n goroutines, which share
// it out in chunks, and returns its wall time over the baseline host's.
func (r *refKernel) slowdown(n int) float64 {
	chunks := uint64(n * refIters / refChunk)
	var next atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for _, m := range r.models[:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				m.run(c)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(refNominal[n])
}

func (r *refKernel) close() { syscall.Munmap(r.mem) }

// run drives the model over refChunk steps of the synthetic stream that
// chunk numbers. Each step makes one data access, mostly sequential with a
// jump one time in eight, and one branch at a wandering PC, taken three
// times in four.
func (m *refModel) run(chunk uint64) {
	x := (chunk+1)*0x9e3779b97f4a7c15 | 1 // a xorshift state must not be 0
	var addr, pc, hist, misses uint64
	for i := 0; i < refChunk; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 0 {
			addr = x & (refAddrSpace - 1)
		} else {
			addr += 8
		}
		if line := addr >> 6; !lookup(m.l1, line) && !lookup(m.l2, line) {
			misses++
		}
		pc = (pc + 4 + (x>>60)*64) & (refCodeSpace - 1)
		taken := x&0x30 != 0
		c := &m.bp[(pc>>2^hist)&(refBPSize-1)]
		if (*c >= 2) != taken {
			misses++
		}
		hist <<= 1
		if taken {
			hist |= 1
			*c = min(*c+1, 3)
		} else if *c > 0 {
			*c--
		}
	}
	m.sink += misses
}

// lookup looks line up in its set of an LRU cache and moves it, or inserts
// it, at the front; it reports a hit.
func lookup(tags []uint64, line uint64) bool {
	sets := uint64(len(tags) / refWays)
	s := tags[line%sets*refWays:][:refWays]
	for i, t := range s {
		if t == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return true
		}
	}
	copy(s[1:], s[:refWays-1])
	s[0] = line
	return false
}

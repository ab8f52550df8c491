// Package bpred implements the hybrid branch predictor of the adaptive
// GALS front end (paper Section 2.2): a gshare component, a local-history
// component, and a meta-predictor choosing between them (McFarling).
//
// Every I-cache configuration is paired with a predictor sized to operate
// at the cache's frequency (Tables 2 and 3); the geometry therefore comes
// from package timing. In the Phase-Adaptive machine all four geometries
// exist in hardware simultaneously (they are subarrays of the largest), so
// a Bank keeps each geometry trained while predictions come from the
// active one.
package bpred

import (
	"slices"

	"gals/internal/timing"
)

// Predictor is one fixed-geometry hybrid predictor.
type Predictor struct {
	geom timing.BPredGeom

	ghist     uint64   // global history register (low GShareBits bits used)
	gshareBHT []uint8  // 2-bit counters, 2^GShareBits entries
	metaBHT   []uint8  // 2-bit counters choosing gshare (>=2) vs local (<2)
	localPHT  []uint16 // per-branch local histories, LocalPHTEntries entries
	localBHT  []uint8  // 2-bit counters, 2^LocalBits entries
}

// New creates a predictor with the given geometry, with all counters in the
// weakly-not-taken state and empty histories.
func New(geom timing.BPredGeom) *Predictor {
	// slices.Repeat fills by doubling copies rather than an element loop,
	// which matters for machines built per short run.
	return &Predictor{
		geom:      geom,
		gshareBHT: slices.Repeat([]uint8{1}, geom.GShareEntries), // weakly not taken
		metaBHT:   slices.Repeat([]uint8{2}, geom.MetaEntries),   // weakly prefer gshare
		localPHT:  make([]uint16, geom.LocalPHTEntries),
		localBHT:  slices.Repeat([]uint8{1}, geom.LocalBHTEntries),
	}
}

// Geom returns the predictor's geometry.
func (p *Predictor) Geom() timing.BPredGeom { return p.geom }

// pcHash spreads instruction addresses across table indices. Hardware uses
// plain low-order bits, which works because real branch addresses are
// irregular; synthetic traces lay code out at regular strides, so an
// un-hashed index would alias far more than reality. The multiplicative
// hash restores a realistic collision profile.
func pcHash(pc uint64) uint64 {
	return (pc >> 2) * 0x9e3779b97f4a7c15 >> 16
}

func (p *Predictor) gshareIndex(pc uint64) int {
	mask := uint64(p.geom.GShareEntries - 1)
	return int((pcHash(pc) ^ p.ghist) & mask)
}

// metaIndex is PC-indexed (not history-indexed): the chooser learns which
// component suits each branch, independent of the history context.
func (p *Predictor) metaIndex(pc uint64) int {
	mask := uint64(p.geom.MetaEntries - 1)
	return int(pcHash(pc) & mask)
}

func (p *Predictor) localPHTIndex(pc uint64) int {
	return int(pcHash(pc) & uint64(p.geom.LocalPHTEntries-1))
}

func (p *Predictor) localBHTIndex(pc uint64) int {
	hist := p.localPHT[p.localPHTIndex(pc)]
	return int(hist) & (p.geom.LocalBHTEntries - 1)
}

// Predict returns the predicted direction for a conditional branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	g := p.gshareBHT[p.gshareIndex(pc)] >= 2
	l := p.localBHT[p.localBHTIndex(pc)] >= 2
	if p.metaBHT[p.metaIndex(pc)] >= 2 {
		return g
	}
	return l
}

func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Update trains the predictor with the actual outcome of the branch at pc.
// It must be called exactly once per predicted branch, after Predict.
func (p *Predictor) Update(pc uint64, taken bool) {
	gi, mi := p.gshareIndex(pc), p.metaIndex(pc)
	li := p.localBHTIndex(pc)

	g := p.gshareBHT[gi] >= 2
	l := p.localBHT[li] >= 2

	// Meta-predictor trains toward whichever component was right when they
	// disagree.
	if g != l {
		p.metaBHT[mi] = bump(p.metaBHT[mi], g == taken)
	}
	p.gshareBHT[gi] = bump(p.gshareBHT[gi], taken)
	p.localBHT[li] = bump(p.localBHT[li], taken)

	// Histories.
	bit := uint64(0)
	u16 := uint16(0)
	if taken {
		bit, u16 = 1, 1
	}
	p.ghist = ((p.ghist << 1) | bit) & ((1 << uint(p.geom.GShareBits)) - 1)
	phi := p.localPHTIndex(pc)
	p.localPHT[phi] = ((p.localPHT[phi] << 1) | u16) & ((1 << uint(p.geom.LocalBits)) - 1)
}

// Bank is the adaptive front end's set of jointly-resized predictors: one
// per I-cache configuration, all trained on every branch, with predictions
// served by the geometry matching the active cache configuration.
type Bank struct {
	preds  [timing.NumICacheConfigs]*Predictor
	active timing.ICacheConfig
}

// NewBank builds a predictor for each adaptive front-end configuration.
func NewBank(active timing.ICacheConfig) *Bank {
	b := &Bank{active: active}
	for _, cfg := range timing.ICacheConfigs() {
		b.preds[cfg] = New(cfg.Spec().BPred)
	}
	return b
}

// SetActive switches which geometry serves predictions.
func (b *Bank) SetActive(cfg timing.ICacheConfig) { b.active = cfg }

// Active returns the geometry currently serving predictions.
func (b *Bank) Active() timing.ICacheConfig { return b.active }

// Predict returns the active geometry's prediction for pc.
func (b *Bank) Predict(pc uint64) bool { return b.preds[b.active].Predict(pc) }

// Predictions returns every geometry's prediction for pc as a bit set: bit
// i is the prediction of the geometry paired with I-cache configuration i.
// Update trains all geometries on every branch, so these bits depend only
// on the branch stream, never on which geometry is active.
func (b *Bank) Predictions(pc uint64) uint8 {
	var bits uint8
	for i, p := range b.preds {
		if p.Predict(pc) {
			bits |= 1 << i
		}
	}
	return bits
}

// Update trains every geometry with the branch outcome, keeping inactive
// subarrays warm across reconfigurations.
func (b *Bank) Update(pc uint64, taken bool) {
	for _, p := range b.preds {
		p.Update(pc, taken)
	}
}

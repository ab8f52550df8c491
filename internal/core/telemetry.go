// Run telemetry: the per-interval, per-domain adaptation time-series behind
// Figure 7. A Telemetry sampler attached to a Machine records one sample at
// every controller decision boundary (cache accounting intervals and ILP
// tracking intervals) plus one event per committed reconfiguration — never
// inside the instruction loop, the same discipline as noteRun in obs.go. A
// nil sampler costs one predictable branch per decision boundary (a few per
// 10k instructions); the A/B bench in PERFORMANCE.md pins the budget.
//
// All hooks run in the timing model, which owns the decision state in both
// fused and streamed runs, so an attached sampler observes bit-identical
// series either way and never perturbs results: nothing telemetry touches
// feeds back into simulation state or Stats.
package core

import (
	"slices"

	"gals/internal/clock"
	"gals/internal/queue"
	"gals/internal/timing"
)

// TelemetryVersion is the artifact schema version, serialized with every
// series so readers can reject payloads written by a different layout.
const TelemetryVersion = 1

// DefaultTelemetryCap is the default ring capacity (samples and events
// each). At the paper's 10k-instruction accounting interval it covers runs
// past 40M instructions before the ring wraps.
const DefaultTelemetryCap = 4096

// TelemetryIQWindow is one ILP-tracker window measurement: the tracked
// window size, the peak ILP observed within it, and the int/fp occupancy
// split (queue.Sample, serialized).
type TelemetryIQWindow struct {
	Window int `json:"window"`
	MaxILP int `json:"max_ilp"`
	IntOcc int `json:"int_occ"`
	FPOcc  int `json:"fp_occ"`
}

// TelemetrySample is one decision-boundary observation: the configuration
// and effective frequency of every domain, the interval's IPC, and the
// boundary kind's own signal (cache hit/miss deltas or issue-queue
// occupancy).
type TelemetrySample struct {
	// Instr is the committed-instruction count at the boundary; TimeFS the
	// pipeline's commit time.
	Instr  int64 `json:"instr"`
	TimeFS int64 `json:"time_fs"`
	// Kind is "cache" (accounting interval) or "iq" (ILP interval).
	Kind string `json:"kind"`

	// Structure sizes at the boundary (post-decision state is visible in
	// the next sample; events carry the transitions).
	ICache      string `json:"icache"`
	ICacheIndex int    `json:"icache_index"`
	DCache      string `json:"dcache"`
	DCacheIndex int    `json:"dcache_index"`
	IntIQ       int    `json:"int_iq"`
	FPIQ        int    `json:"fp_iq"`

	// Effective domain frequencies (current clock periods, so an in-flight
	// PLL lock shows the pre-switch frequency until it completes).
	FEMHz  float64 `json:"fe_mhz"`
	LSMHz  float64 `json:"ls_mhz"`
	IntMHz float64 `json:"int_mhz"`
	FPMHz  float64 `json:"fp_mhz"`

	// IPC is committed instructions per nanosecond since the previous
	// boundary of the same kind (0 for a zero-length interval).
	IPC float64 `json:"ipc"`

	// Cache-interval deltas (Kind "cache"): the accounting hardware's hit
	// counts reconstructed for the configuration the interval ran under.
	ICacheHitsA  uint64 `json:"icache_hits_a,omitempty"`
	ICacheHitsB  uint64 `json:"icache_hits_b,omitempty"`
	ICacheMisses uint64 `json:"icache_misses,omitempty"`
	DCacheHitsA  uint64 `json:"dcache_hits_a,omitempty"`
	DCacheHitsB  uint64 `json:"dcache_hits_b,omitempty"`
	DCacheMisses uint64 `json:"dcache_misses,omitempty"`
	L2HitsA      uint64 `json:"l2_hits_a,omitempty"`
	L2HitsB      uint64 `json:"l2_hits_b,omitempty"`
	L2Misses     uint64 `json:"l2_misses,omitempty"`

	// Queue occupancy (Kind "iq"): the four tracker windows.
	IQ []TelemetryIQWindow `json:"iq,omitempty"`
}

// TelemetryEvent is one committed reconfiguration: which structure moved,
// which way, and which decision boundary triggered it.
type TelemetryEvent struct {
	Instr  int64 `json:"instr"`
	TimeFS int64 `json:"time_fs"`
	// Structure is "icache", "dcache", "int-iq" or "fp-iq".
	Structure string `json:"structure"`
	// Direction is "up" (larger/more complex), "down", or "same" (a policy
	// re-targeting the current configuration).
	Direction string `json:"direction"`
	// From and To are configuration indices (0..3); Config the new label.
	From   int    `json:"from"`
	To     int    `json:"to"`
	Config string `json:"config"`
	// Trigger is the boundary kind that produced the decision:
	// "cache-interval" or "iq-interval".
	Trigger string `json:"trigger"`
}

// Telemetry is both the sampler a Machine writes into and the versioned
// series it serializes to: rings are preallocated at construction, hooks
// append without allocating, and Seal fixes the metadata and chronology at
// run completion. The zero value is not usable; construct with NewTelemetry.
type Telemetry struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Policy   string `json:"policy"`
	// Window is the committed-instruction count of the run; TimeFS its
	// total execution time; Reconfigs the run's Stats.Reconfigs (equal to
	// len(Events)+DroppedEvents).
	Window    int64             `json:"window"`
	TimeFS    int64             `json:"time_fs"`
	Reconfigs int64             `json:"reconfigs"`
	Samples   []TelemetrySample `json:"samples"`
	Events    []TelemetryEvent  `json:"events"`
	// Dropped* count ring overwrites: the series keeps the most recent
	// cap entries and these record how many older ones rotated out.
	DroppedSamples int64 `json:"dropped_samples,omitempty"`
	DroppedEvents  int64 `json:"dropped_events,omitempty"`

	// Ring heads (oldest entry once the ring has wrapped).
	sampleHead int
	eventHead  int
	// trigger is the decision boundary currently executing, read by the
	// reconfig hook; single-goroutine (timing stage), no lock needed.
	trigger string
	// Per-kind previous boundary markers for interval IPC.
	lastCacheInstr int64
	lastCacheTime  timing.FS
	lastIQInstr    int64
	lastIQTime     timing.FS
	sealed         bool
	// iqBacking holds iqWindowsPerSample entries per ring slot; the IQ
	// slices of "iq" samples are carved from it round-robin, starting at
	// entry iqNext.
	iqBacking []TelemetryIQWindow
	iqNext    int
}

// iqWindowsPerSample is the number of ILP-tracker windows an "iq" sample
// carries.
const iqWindowsPerSample = 4

// NewTelemetry returns a sampler with preallocated sample and event rings
// of the given capacity each (<= 0 selects DefaultTelemetryCap).
func NewTelemetry(capacity int) *Telemetry {
	if capacity <= 0 {
		capacity = DefaultTelemetryCap
	}
	return &Telemetry{
		Version:   TelemetryVersion,
		Samples:   make([]TelemetrySample, 0, capacity),
		Events:    make([]TelemetryEvent, 0, capacity),
		iqBacking: make([]TelemetryIQWindow, capacity*iqWindowsPerSample),
	}
}

// iqWindows returns the next sample's ILP-window slice, carved from the
// preallocated backing array. Chunks go round-robin by "iq" sample count,
// so a chunk is reused only by the capacity-th "iq" sample after the one
// holding it; at least capacity samples have been pushed by then, so the
// ring has already dropped (or is about to drop) that holder.
func (t *Telemetry) iqWindows() []TelemetryIQWindow {
	lo := t.iqNext
	if t.iqNext += iqWindowsPerSample; t.iqNext == len(t.iqBacking) {
		t.iqNext = 0
	}
	return t.iqBacking[lo : lo+iqWindowsPerSample : lo+iqWindowsPerSample]
}

// ringPush appends v to the ring *s, whose capacity is fixed at
// construction. Once the ring is full, v overwrites the oldest entry, at
// *head, in place and the drop is counted in *dropped.
func ringPush[T any](s *[]T, head *int, dropped *int64, v T) {
	if len(*s) < cap(*s) {
		*s = append(*s, v)
		return
	}
	*dropped++
	if len(*s) == 0 {
		return
	}
	(*s)[*head] = v
	if *head++; *head == len(*s) {
		*head = 0
	}
}

// ringRotate puts a ring's entries in chronological order in place: the
// oldest, at head, moves to the front.
func ringRotate[T any](s []T, head int) {
	if head == 0 {
		return
	}
	slices.Reverse(s[:head])
	slices.Reverse(s[head:])
	slices.Reverse(s)
}

// base fills the fields every sample shares: position, configuration state
// and effective frequencies.
func (t *Telemetry) base(m *Machine, kind string) TelemetrySample {
	return TelemetrySample{
		Instr:       m.count,
		TimeFS:      int64(m.lastCommit),
		Kind:        kind,
		ICache:      m.iCfg.String(),
		ICacheIndex: int(m.iCfg),
		DCache:      m.dCfg.String(),
		DCacheIndex: int(m.dCfg),
		IntIQ:       int(m.intIQ),
		FPIQ:        int(m.fpIQ),
		FEMHz:       mhz(m.clocks[clock.FrontEnd].CurrentPeriod()),
		LSMHz:       mhz(m.clocks[clock.LoadStore].CurrentPeriod()),
		IntMHz:      mhz(m.clocks[clock.Integer].CurrentPeriod()),
		FPMHz:       mhz(m.clocks[clock.FloatingPoint].CurrentPeriod()),
	}
}

// mhz converts a clock period in femtoseconds to MHz (0 for a zero period).
func mhz(p timing.FS) float64 {
	if p <= 0 {
		return 0
	}
	return 1e9 / float64(p)
}

// intervalIPC computes committed instructions per nanosecond between two
// boundary markers.
func intervalIPC(dInstr int64, dTime timing.FS) float64 {
	if dTime <= 0 {
		return 0
	}
	return float64(dInstr) / (float64(dTime) / float64(timing.FemtosPerNano))
}

// noteCacheInterval records one completed accounting interval: the shared
// state plus the interval's reconstructed hit/miss counts for the
// configuration it ran under. Called by cacheDecide before the policy
// decides, so the sample reflects exactly what the policy saw.
func (t *Telemetry) noteCacheInterval(m *Machine, st *intervalSnapshot) {
	t.trigger = "cache-interval"
	s := t.base(m, "cache")
	s.IPC = intervalIPC(m.count-t.lastCacheInstr, m.lastCommit-t.lastCacheTime)
	t.lastCacheInstr, t.lastCacheTime = m.count, m.lastCommit
	s.ICacheHitsA, s.ICacheHitsB, s.ICacheMisses = st.i.Reconstruct(int(m.iCfg)+1, true)
	s.DCacheHitsA, s.DCacheHitsB, s.DCacheMisses = st.d.Reconstruct(dcacheWaysA(m.dCfg), true)
	s.L2HitsA, s.L2HitsB, s.L2Misses = st.l2.Reconstruct(dcacheWaysA(m.dCfg), true)
	ringPush(&t.Samples, &t.sampleHead, &t.DroppedSamples, s)
}

// noteIQInterval records one completed ILP-tracking interval with the four
// tracker window occupancies the policy is about to decide on.
func (t *Telemetry) noteIQInterval(m *Machine, samples [iqWindowsPerSample]queue.Sample) {
	t.trigger = "iq-interval"
	s := t.base(m, "iq")
	s.IPC = intervalIPC(m.count-t.lastIQInstr, m.lastCommit-t.lastIQTime)
	t.lastIQInstr, t.lastIQTime = m.count, m.lastCommit
	iq := t.iqWindows()
	for i, w := range samples {
		iq[i] = TelemetryIQWindow{Window: w.N, MaxILP: w.M, IntOcc: w.IntCount, FPOcc: w.FPCount}
	}
	s.IQ = iq
	ringPush(&t.Samples, &t.sampleHead, &t.DroppedSamples, s)
}

// noteReconfig records one committed reconfiguration, tagged with the
// boundary that triggered it.
func (t *Telemetry) noteReconfig(m *Machine, structure, label string, to, from int) {
	ringPush(&t.Events, &t.eventHead, &t.DroppedEvents, TelemetryEvent{
		Instr:     m.count,
		TimeFS:    int64(m.lastCommit),
		Structure: structure,
		Direction: reconfigDirections[directionIndex(from, to)],
		From:      from,
		To:        to,
		Config:    label,
		Trigger:   t.trigger,
	})
}

// reconfigDirections indexes directionIndex results.
var reconfigDirections = [3]string{"up", "down", "same"}

// directionIndex classifies a from->to index move: 0 up, 1 down, 2 same.
func directionIndex(from, to int) int {
	switch {
	case to > from:
		return 0
	case to < from:
		return 1
	default:
		return 2
	}
}

// Seal fixes the series at run completion: metadata from the finished
// machine, rings rotated into chronological order. Called once by result();
// further runs of the same machine keep appending but never re-rotate.
func (t *Telemetry) Seal(m *Machine) {
	t.Version = TelemetryVersion
	t.Workload = m.trace.Spec().Name
	t.Config = m.cfg.Label()
	t.Policy = policyLabel(m.cfg)
	t.Window = m.count
	t.TimeFS = int64(m.lastCommit)
	t.Reconfigs = m.stats.Reconfigs
	if t.sealed {
		return
	}
	t.sealed = true
	ringRotate(t.Samples, t.sampleHead)
	ringRotate(t.Events, t.eventHead)
	t.sampleHead, t.eventHead = 0, 0
}

// EventTotal returns the number of reconfiguration events the run
// committed, including any rotated out of a saturated ring — the figure
// that must equal the run's Stats.Reconfigs.
func (t *Telemetry) EventTotal() int64 { return int64(len(t.Events)) + t.DroppedEvents }

// EventsByStructure counts the recorded events per structure name.
func (t *Telemetry) EventsByStructure() map[string]int64 {
	out := make(map[string]int64, 4)
	for i := range t.Events {
		out[t.Events[i].Structure]++
	}
	return out
}

// The training pipeline: run the paper's controllers over recorded phase
// runs of the benchmark suite, record every (observation features, decision)
// pair they produce, and fit the four linear heads by structured perceptron
// to imitate them. Everything is deterministic — fixed benchmark order,
// fixed interval order, fixed epoch count, no randomness — so the same
// options always fit bit-identical weights, which is what lets the artifact
// live in the result cache as a content-addressed sidecar.
package learn

import (
	"context"
	"fmt"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/flight"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

// TrainOptions scale the training pipeline. The zero value is usable:
// defaults match the sweep layer's (window 30,000, seed 42, PLL scale 0.1)
// plus 3 perceptron epochs.
type TrainOptions struct {
	// Window is the instruction window of each recorded phase run.
	Window int64 `json:"window"`
	// Seed and PLLScale configure the runs like sweep.Options.
	Seed     int64   `json:"seed"`
	PLLScale float64 `json:"pllscale"`
	// JitterFrac enables clock jitter in the training runs.
	JitterFrac float64 `json:"jitter,omitempty"`
	// Epochs is the number of perceptron passes over the decision dataset.
	Epochs int `json:"epochs"`
}

// withDefaults resolves zero fields; the result is the canonical artifact
// identity (resultcache key payload).
func (o TrainOptions) withDefaults() TrainOptions {
	if o.Window <= 0 {
		o.Window = 30_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PLLScale == 0 {
		o.PLLScale = 0.1
	}
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
	return o
}

// TrainStats report one pipeline execution.
type TrainStats struct {
	// Benchmarks is the number of phase runs observed.
	Benchmarks int
	// Samples and Accuracy are per head (Head order): dataset size and the
	// fitted model's imitation accuracy over it.
	Samples  [NumHeads]int
	Accuracy [NumHeads]float64
}

// sample is one recorded decision: the candidate feature matrix and the
// index the paper's controller chose (the current one when it stood pat).
type sample struct {
	f     feats
	label int
}

// probe wraps the paper controller, forwarding every decision unchanged
// while recording (features, choice) pairs — so the observed run is
// bit-identical to a plain paper-policy run and the dataset reflects
// exactly the states that policy visits.
type probe struct {
	inner control.Controller
	ds    *[NumHeads][]sample
}

func (p *probe) CacheInterval() int64 { return p.inner.CacheInterval() }
func (p *probe) NeedsIQ() bool        { return p.inner.NeedsIQ() }
func (p *probe) IQWindows() [4]int    { return p.inner.IQWindows() }

// chosen extracts the decided target for kind from the controller's output,
// falling back to the current index when it stood pat.
func chosen(out []control.Reconfig, kind control.Kind, cur int) int {
	for _, r := range out {
		if r.Kind == kind {
			if kind == control.IntIQ || kind == control.FPIQ {
				return timing.IQIndex(timing.IQSize(r.Target))
			}
			return r.Target
		}
	}
	return cur
}

func (p *probe) DecideCaches(obs control.CacheObs, buf []control.Reconfig) []control.Reconfig {
	out := p.inner.DecideCaches(obs, buf)
	if !obs.FEPending && obs.ICache.Accesses > 0 {
		p.ds[HeadICache] = append(p.ds[HeadICache],
			sample{icacheFeatures(obs), chosen(out, control.ICache, int(obs.ICfg))})
	}
	if !obs.LSPending && obs.DCacheL1.Accesses > 0 {
		p.ds[HeadDCache] = append(p.ds[HeadDCache],
			sample{dcacheFeatures(obs, obs.L2LineBytes), chosen(out, control.DCache, int(obs.DCfg))})
	}
	return out
}

func (p *probe) DecideIQs(obs control.IQObs, buf []control.Reconfig) []control.Reconfig {
	out := p.inner.DecideIQs(obs, buf)
	if iqObsUsable(obs) {
		if !obs.IntPending {
			p.ds[HeadIntIQ] = append(p.ds[HeadIntIQ],
				sample{iqFeatures(obs, false), chosen(out, control.IntIQ, timing.IQIndex(obs.IntIQ))})
		}
		if !obs.FPPending {
			p.ds[HeadFPIQ] = append(p.ds[HeadFPIQ],
				sample{iqFeatures(obs, true), chosen(out, control.FPIQ, timing.IQIndex(obs.FPIQ))})
		}
	}
	return out
}

// Train runs the pipeline: one recorded phase run per suite benchmark under
// the paper policy (observed through a probe controller), then a structured
// perceptron fit per head. The runs replay recordings from env.Recordings
// when set. Deterministic: identical options produce a bit-identical model.
func Train(env sweep.Env, o TrainOptions) (*Model, TrainStats, error) {
	o = o.withDefaults()
	var ds [NumHeads][]sample
	pool := env.Pool(o.Window)
	specs := workload.Suite()
	for _, spec := range specs {
		cfg := core.DefaultAdaptive(core.PhaseAdaptive)
		cfg.Seed = o.Seed
		cfg.PLLScale = o.PLLScale
		cfg.JitterFrac = o.JitterFrac
		inner, err := control.New(control.DefaultPolicy, "", control.Init{
			IntIQ: cfg.IntIQ, FPIQ: cfg.FPIQ,
			ICache: cfg.ICache, DCache: cfg.DCache,
		})
		if err != nil {
			return nil, TrainStats{}, fmt.Errorf("learn: %w", err)
		}
		core.NewMachineController(pool.Get(spec).Replay(), cfg, &probe{inner: inner, ds: &ds}).Run(o.Window)
	}
	pool.Retire()

	m := &Model{Version: ModelVersion, Features: NumFeatures}
	st := TrainStats{Benchmarks: len(specs)}
	for h := 0; h < NumHeads; h++ {
		w, acc := fit(ds[h], o.Epochs)
		switch h {
		case HeadICache:
			m.ICache = w
		case HeadDCache:
			m.DCache = w
		case HeadIntIQ:
			m.IntIQ = w
		case HeadFPIQ:
			m.FPIQ = w
		}
		st.Samples[h] = len(ds[h])
		st.Accuracy[h] = acc
	}
	return m, st, nil
}

// fit runs a structured perceptron over the dataset in its fixed order:
// when the model's argmax disagrees with the recorded choice, the weights
// move toward the chosen candidate's features and away from the predicted
// one's. It returns the weights and their final imitation accuracy.
func fit(ds []sample, epochs int) ([]float64, float64) {
	w := make([]float64, NumFeatures)
	for e := 0; e < epochs; e++ {
		for i := range ds {
			pred := argmax(w, &ds[i].f)
			if pred != ds[i].label {
				for j := 0; j < NumFeatures; j++ {
					w[j] += ds[i].f[ds[i].label][j] - ds[i].f[pred][j]
				}
			}
		}
	}
	if len(ds) == 0 {
		return w, 0
	}
	correct := 0
	for i := range ds {
		if argmax(w, &ds[i].f) == ds[i].label {
			correct++
		}
	}
	return w, float64(correct) / float64(len(ds))
}

// ---------------------------------------------------------------------------
// The sidecar artifact.

// artifactMemoKey keys the process-local artifact memo: the sidecar's key
// plus the store it persists to, so a process with two stores writes the
// sidecar to each.
type artifactMemoKey struct {
	key   string
	cache resultcache.Store
}

// artifacts is the process-local memo: a training run holds up only the
// callers of its own key.
var artifacts flight.Group[artifactMemoKey, string]

// ArtifactKey returns the result-cache key of the training options'
// sidecar artifact.
func ArtifactKey(o TrainOptions) string {
	return resultcache.Key("policyblob", o.withDefaults())
}

// Artifact returns the canonical weights artifact for the training options,
// training at most once per identity and store: first the process-local
// memo, then the sidecar entry in env.Cache (when set), then the pipeline —
// whose output is written back as the sidecar. The returned blob validates under
// the "learned" policy and is byte-stable across processes: a stored model
// decodes and re-encodes to exactly the trained bytes.
func Artifact(env sweep.Env, o TrainOptions) (string, error) {
	key := ArtifactKey(o)
	if !resultcache.Comparable(env.Cache) {
		return trainArtifact(env, o, key)
	}
	blob, _, err := artifacts.Do(nil, artifactMemoKey{key, env.Cache}, func(context.Context) (string, error) {
		return trainArtifact(env, o, key)
	})
	return blob, err
}

// trainArtifact loads the sidecar for key from env.Cache or, failing that,
// trains and writes it.
func trainArtifact(env sweep.Env, o TrainOptions, key string) (string, error) {
	store := env.Cache
	if store != nil {
		var m Model
		if store.Load(key, &m) {
			if blob, err := m.Encode(); err == nil {
				if _, perr := ParseModel(blob); perr == nil {
					return blob, nil
				}
			}
			// A corrupt sidecar falls through to retraining and is
			// overwritten below.
		}
	}
	m, _, err := Train(env, o)
	if err != nil {
		return "", err
	}
	blob, err := m.Encode()
	if err != nil {
		return "", err
	}
	if store != nil {
		store.Store(key, m)
	}
	return blob, nil
}

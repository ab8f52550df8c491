package control

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// DefaultPolicy is the policy an empty name resolves to: the paper's exact
// controllers.
const DefaultPolicy = "paper"

// ParamInfo describes one policy parameter for registry listings.
type ParamInfo struct {
	// Name is the parameter key as written in a params string.
	Name string `json:"name"`
	// Default is the declared default: the value an omitted parameter
	// resolves to (possibly indirectly — see resolve).
	Default float64 `json:"default"`
	// Description says what the parameter does (units included).
	Description string `json:"description"`
}

// Info describes one registered policy.
type Info struct {
	// Name is the registry key (core.Config.Policy).
	Name string `json:"name"`
	// Description is a one-line summary.
	Description string `json:"description"`
	// Params lists the accepted parameters; policies reject unknown keys.
	Params []ParamInfo `json:"params,omitempty"`
	// RequiresBlob marks policies whose controllers are built from a
	// structured artifact (core.Config.PolicyBlob) in addition to the flat
	// float parameters — e.g. the "learned" policy's trained weights. Such
	// policies cannot be selected without an artifact, and defaulting layers
	// (a phase sweep with no explicit policy list) skip them.
	RequiresBlob bool `json:"requires_blob,omitempty"`
}

var (
	regMu    sync.RWMutex
	registry = map[string]Policy{}
	regOrder []string
)

// Register adds a policy under its Info().Name. It panics on an empty or
// duplicate name — registration is an init-time, programmer-error surface.
func Register(p Policy) {
	name := p.Info().Name
	if name == "" {
		panic("control: policy with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("control: duplicate policy " + name)
	}
	registry[name] = p
	regOrder = append(regOrder, name)
}

// Lookup resolves a policy name ("" means DefaultPolicy).
func Lookup(name string) (Policy, bool) {
	if name == "" {
		name = DefaultPolicy
	}
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names lists the registered policy names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// Infos lists the registered policies in registration order.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name].Info())
	}
	return out
}

// ParseParams parses a "key=value[,key=value...]" parameter string into a
// map. An empty string parses to an empty map. Keys must be non-empty and
// unique; values must parse as floats (integers included).
func ParseParams(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return nil, fmt.Errorf("control: malformed parameter %q (want key=value)", part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("control: parameter %s: %v", k, err)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("control: duplicate parameter %q", k)
		}
		out[k] = f
	}
	return out, nil
}

// resolve looks up the policy and parses+validates params and the blob
// artifact against its declared ParamInfos. The returned map holds only the
// explicitly given keys — a policy must be able to tell "omitted" from "set
// to the declared default", because some defaults resolve through Init
// (e.g. "interval"'s hysteresis inherits Config.IQHysteresis when not
// given, exactly like "paper").
func resolve(name, params, blob string) (Policy, map[string]float64, error) {
	p, got, err := resolveParams(name, params)
	if err != nil {
		return nil, nil, err
	}
	info := p.Info()
	switch bv, hasBV := p.(BlobValidator); {
	case blob == "" && info.RequiresBlob:
		return nil, nil, fmt.Errorf("control: policy %q requires a blob artifact (none given)", info.Name)
	case blob != "" && !info.RequiresBlob && !hasBV:
		return nil, nil, fmt.Errorf("control: policy %q takes no blob artifact", info.Name)
	case blob != "" && hasBV:
		if err := bv.ValidateBlob(blob); err != nil {
			return nil, nil, fmt.Errorf("control: policy %q: %w", info.Name, err)
		}
	}
	return p, got, nil
}

// resolveParams is resolve without the blob artifact rules: lookup, parse,
// unknown-key rejection, generic bounds and the policy's own tighter
// ParamValidator bounds.
func resolveParams(name, params string) (Policy, map[string]float64, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("control: unknown policy %q (have %v)", name, Names())
	}
	got, err := ParseParams(params)
	if err != nil {
		return nil, nil, err
	}
	info := p.Info()
	allowed := map[string]bool{}
	for _, pi := range info.Params {
		allowed[pi.Name] = true
	}
	for k := range got {
		if !allowed[k] {
			return nil, nil, fmt.Errorf("control: policy %q has no parameter %q (accepts %v)",
				info.Name, k, paramNames(info.Params))
		}
	}
	if err := validateValues(info, got); err != nil {
		return nil, nil, err
	}
	if v, ok := p.(ParamValidator); ok {
		if err := v.ValidateParams(got); err != nil {
			return nil, nil, fmt.Errorf("control: policy %q: %w", info.Name, err)
		}
	}
	return p, got, nil
}

// ParamValidator is an optional Policy extension applying bounds tighter
// than the generic finite-and-non-negative rule — e.g. the feedback
// policy's gain and setpoint ranges. It sees only the explicitly given
// values.
type ParamValidator interface {
	ValidateParams(vals map[string]float64) error
}

// BlobValidator is the optional Policy extension for policies constructed
// from a structured blob artifact (Info.RequiresBlob): it must reject any
// blob NewController could not deterministically build a controller from.
type BlobValidator interface {
	ValidateBlob(blob string) error
}

// BlobDigest returns the canonical digest of a policy blob artifact (the
// sha-256 hex of its bytes), or "" for an empty blob. Cache and memo key
// payloads embed this digest rather than the artifact itself, so keys stay
// sound — two runs agree on a key if and only if they agree on the exact
// artifact bytes — without blobs inflating every request payload.
func BlobDigest(blob string) string {
	if blob == "" {
		return ""
	}
	h := sha256.Sum256([]byte(blob))
	return hex.EncodeToString(h[:])
}

func paramNames(ps []ParamInfo) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// validateValues applies the cross-policy sanity rules to the explicitly
// given values: every built-in parameter is a count or an instruction
// interval, so values must be finite and non-negative.
func validateValues(info Info, vals map[string]float64) error {
	for _, pi := range info.Params {
		v, ok := vals[pi.Name]
		if !ok {
			continue
		}
		if !(v >= 0) || v > 1e15 { // negated form rejects NaN too
			return fmt.Errorf("control: policy %q parameter %s=%v out of range", info.Name, pi.Name, v)
		}
	}
	return nil
}

// Param returns the explicitly given value for name, or def when omitted.
func Param(params map[string]float64, name string, def float64) float64 {
	if v, ok := params[name]; ok {
		return v
	}
	return def
}

// ValidateSelection reports whether name/params/blob select a registered
// policy with a well-formed parameter assignment and (when the policy
// requires or accepts one) a well-formed blob artifact. It is what
// core.Config.Validate calls.
func ValidateSelection(name, params, blob string) error {
	_, _, err := resolve(name, params, blob)
	return err
}

// New builds a controller for the named policy ("" selects DefaultPolicy)
// with the given parameter string and construction state (including any
// blob artifact in Init.Blob).
func New(name, params string, init Init) (Controller, error) {
	p, got, err := resolve(name, params, init.Blob)
	if err != nil {
		return nil, err
	}
	return p.NewController(got, init), nil
}

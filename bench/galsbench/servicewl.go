package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gals/client"
	"gals/internal/core"
	"gals/internal/metrics"
	"gals/internal/service"
	"gals/internal/timing"
)

// serviceBenchmarks are the benchmarks galsd's requests name.
var serviceBenchmarks = []string{"gcc", "em3d", "apsi", "mst"}

const (
	serviceWorkers = 2
	serviceClients = 2
	// warmRequests is the size of the fixed request set cache hits come
	// from; coldShare the fraction of requests that simulate.
	warmRequests = 8
	coldShare    = 0.25
	// coldSample is how many cold requests (the first by seed number) the
	// digest covers and verify re-runs directly.
	coldSample = 8
)

// warmSet returns the fixed requests served from galsd's cache: sync,
// program and phase modes across the four benchmarks, at one seeded PLL
// seed.
func warmSet(seed, window int64) []service.RunRequest {
	modes := []string{"sync", "program", "phase"}
	s := subSeed(seed, saltWarm, 0)
	out := make([]service.RunRequest, warmRequests)
	for i := range out {
		out[i] = service.RunRequest{
			Bench: serviceBenchmarks[i%len(serviceBenchmarks)], Mode: modes[i%len(modes)],
			Window: window, Seed: s,
		}
	}
	return out
}

// coldRequest returns cold request k: a phase run whose seed no other
// request uses, above every warm seed.
func coldRequest(seed, window, k int64) service.RunRequest {
	return service.RunRequest{
		Bench: serviceBenchmarks[k%int64(len(serviceBenchmarks))], Mode: "phase", Window: window,
		Seed: 1<<32 + subSeed(seed, saltCold, 0)<<20 + k,
	}
}

// serviceBench is service-mixed: galsd in this process behind a loopback
// listener, driven by closed-loop gals/client callers.
type serviceBench struct {
	seed, window int64
	dir          string
	svc          *service.Service
	srv          *http.Server
	served       chan struct{} // closed when Serve returns
	transports   []*http.Transport
	callers      []*client.Client
	rngs         []*rand.Rand // per client: warm or cold, and which warm request

	warm     []service.RunRequest
	warmRef  []service.RunResult // each warm request's first (simulated) response
	coldNext atomic.Int64

	mu   sync.Mutex
	cold map[int64]service.RunResult // the first coldSample cold responses
}

func newServiceBench(p params) (*serviceBench, error) {
	b := &serviceBench{seed: p.seed, window: p.serviceWindow, warm: warmSet(p.seed, p.serviceWindow), cold: map[int64]service.RunResult{}}
	if err := b.start(p); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serviceBench) start(p params) error {
	tmp, err := p.tmpDir()
	if err != nil {
		return err
	}
	if b.dir, err = os.MkdirTemp(tmp, "galsd-"); err != nil {
		return err
	}
	if b.svc, err = service.New(service.Config{CacheDir: b.dir, Workers: serviceWorkers}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: b.svc.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	for c := 0; c < serviceClients; c++ {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		b.transports = append(b.transports, tp)
		b.callers = append(b.callers, client.New(client.Options{
			BaseURL:          "http://" + ln.Addr().String(),
			HTTPClient:       &http.Client{Transport: tracingTransport{tp}},
			MaxAttempts:      1,
			BreakerThreshold: -1,
		}))
		b.rngs = append(b.rngs, rand.New(rand.NewSource(subSeed(p.seed, saltClient, c))))
	}
	for _, req := range b.warm {
		res, err := b.callers[0].Run(context.Background(), req)
		if err != nil {
			return fmt.Errorf("first %s/%s request: %w", req.Bench, req.Mode, err)
		}
		b.warmRef = append(b.warmRef, res)
	}
	return nil
}

func (b *serviceBench) clients() int { return len(b.callers) }

func (b *serviceBench) op(o *opCtx) opResult {
	rng := b.rngs[o.client]
	if rng.Float64() < coldShare {
		k := b.coldNext.Add(1) - 1
		res, dump, err := b.call(o, "cold", coldRequest(b.seed, b.window, k))
		r := opResult{class: "cold", isRun: true, trace: dump, err: err}
		if err != nil {
			return r
		}
		r.cells, r.insts = 1, res.Instructions
		if res.Cached || res.Deduped {
			r.err = fmt.Errorf("cold request %d was not simulated", k)
		}
		if k < coldSample {
			b.mu.Lock()
			b.cold[k] = res
			b.mu.Unlock()
		}
		return r
	}
	i := rng.Intn(len(b.warm))
	res, dump, err := b.call(o, "warm", b.warm[i])
	r := opResult{class: "warm", trace: dump, err: err}
	if err == nil && !sameResponse(res, b.warmRef[i]) {
		r.err = fmt.Errorf("warm %s/%s response differs from its first response", b.warm[i].Bench, b.warm[i].Mode)
	}
	return r
}

// call issues one request from the operation's client. A traced call asks
// galsd for its server-side spans (?trace=1) and folds them under the
// client span.
func (b *serviceBench) call(o *opCtx, class string, req service.RunRequest) (service.RunResult, *metrics.TraceDump, error) {
	ctx := context.Background()
	var slot *traceSlot
	if o.tr != nil {
		slot = &traceSlot{}
		ctx = context.WithValue(ctx, traceSlotKey{}, slot)
	}
	id := o.tr.begin(0, "client", "Client.Run", o.req)
	o.tr.annotate(id, class)
	res, err := b.callers[o.client].Run(ctx, req)
	o.tr.end(id)
	if err != nil {
		return res, nil, fmt.Errorf("%s %s/%s request: %w", class, req.Bench, req.Mode, err)
	}
	if slot == nil {
		return res, nil, nil
	}
	o.tr.fold(id, o.req, slot.dump, serviceTrace)
	return res, slot.dump, nil
}

// sameResponse compares the simulated content of two responses, ignoring
// how each was served.
func sameResponse(a, b service.RunResult) bool {
	return a.Workload == b.Workload && a.Config == b.Config && a.Instructions == b.Instructions &&
		sameOutput(outputOf(a), outputOf(b))
}

func outputOf(r service.RunResult) simOutput { return simOutput{timing.FS(r.TimeFS), r.Stats} }

// verify issues any of the first coldSample cold requests the window did
// not reach, then checks each against a direct core.RunWorkload run.
func (b *serviceBench) verify(chk *checks) {
	for k := int64(0); k < coldSample; k++ {
		req := coldRequest(b.seed, b.window, k)
		res, ok := b.cold[k]
		if !ok {
			var err error
			res, _, err = b.call(&opCtx{}, "cold", req)
			chk.note(err)
			if err != nil {
				continue
			}
			b.cold[k] = res
		}
		spec := mustSpecs([]string{req.Bench})[0]
		direct := core.RunWorkload(spec, phaseConfig(req.Seed), req.Window)
		var err error
		if !sameOutput(outputOf(res), simOutput{direct.TimeFS, direct.Stats}) {
			err = fmt.Errorf("cold %s seed %d: galsd's result differs from core.RunWorkload's", req.Bench, req.Seed)
		}
		chk.note(err)
	}
}

func (b *serviceBench) digest() string {
	var outs []simOutput
	for _, r := range b.warmRef {
		outs = append(outs, outputOf(r))
	}
	keys := make([]int64, 0, len(b.cold))
	for k := range b.cold {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		outs = append(outs, outputOf(b.cold[k]))
	}
	return digestOf(outs)
}

func (b *serviceBench) close() {
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.srv.Shutdown(ctx) // every client call has returned, so there is nothing to drain
		cancel()
		<-b.served
	}
	for _, tp := range b.transports {
		tp.CloseIdleConnections()
	}
	if b.svc != nil {
		b.svc.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// traceSlot receives the server-side trace of one traced request.
type traceSlot struct{ dump *metrics.TraceDump }

type traceSlotKey struct{}

// tracingTransport adds ?trace=1 to requests whose context carries a
// traceSlot, stores the trace galsd returns inline, and hands the client
// the plain result, so gals/client stays unchanged on the traced path.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	slot, _ := req.Context().Value(traceSlotKey{}).(*traceSlot)
	if slot == nil {
		return t.base.RoundTrip(req)
	}
	traced := req.Clone(req.Context())
	q := traced.URL.Query()
	q.Set("trace", "1")
	traced.URL.RawQuery = q.Encode()
	resp, err := t.base.RoundTrip(traced)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Result json.RawMessage    `json:"result"`
		Trace  *metrics.TraceDump `json:"trace"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil {
		return nil, fmt.Errorf("traced response: %w", err)
	}
	slot.dump = wrapped.Trace
	resp.Body = io.NopCloser(bytes.NewReader(wrapped.Result))
	resp.ContentLength = int64(len(wrapped.Result))
	return resp, nil
}

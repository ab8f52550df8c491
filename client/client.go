// Package client is the Go client for galsd with the retry discipline the
// server's degradation contract expects: exponential backoff with full
// jitter, Retry-After honoring, a total retry budget and a consecutive-
// failure circuit breaker. Every galsd compute endpoint is idempotent (a
// request is a pure function of its body, and partial results are never
// cached server-side), so the client retries POSTs as freely as GETs —
// but only on the responses the server marks transient: 429, 503, 504 and
// transport errors. 4xx validation failures surface immediately.
//
// The zero Options value is usable: it targets http://localhost:8347 with
// 8 attempts, 100ms base backoff and a 5-failure breaker.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/core"
	"gals/internal/service"
)

// Re-exported wire types, so callers need not import internal packages
// (and cannot: gals/internal is invisible outside the module).
type (
	RunRequest   = service.RunRequest
	RunResult    = service.RunResult
	SweepRequest = service.SweepRequest
	SweepResult  = service.SweepResult
	SuiteRequest = service.SuiteRequest
	SuiteSummary = service.SuiteSummary
	ServerStats  = service.Stats
	Telemetry    = core.Telemetry
)

// ErrBreakerOpen is returned without touching the network while the
// circuit breaker is open: enough consecutive calls have failed that the
// server is presumed down, and hammering it would slow its recovery.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// APIError is a non-2xx response from galsd.
type APIError struct {
	StatusCode int
	Message    string        // the server's {"error": ...}, or the raw body
	RetryAfter time.Duration // parsed Retry-After, 0 when absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: galsd returned %d: %s", e.StatusCode, e.Message)
}

// Retryable reports whether the response signals a transient condition
// under the server's contract: 429 (admission control), 503 (queue full /
// shutting down / injected fault) and 504 (deadline expired; the next
// attempt may land on a warmer cache or a quieter server).
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Options configures a Client. The zero value works; fields override.
type Options struct {
	// BaseURL is the server root (default "http://localhost:8347").
	BaseURL string
	// Token, when set, is sent as "Authorization: Bearer <Token>".
	Token string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call, first attempt included
	// (default 8; 1 disables retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 100ms): attempt
	// k sleeps a uniform random duration in [0, min(MaxBackoff,
	// BaseBackoff<<k)] — "full jitter", which spreads a thundering herd of
	// recovering clients instead of synchronizing it.
	BaseBackoff time.Duration
	// MaxBackoff caps one sleep (default 10s).
	MaxBackoff time.Duration
	// Budget caps the total time a call may spend across attempts and
	// sleeps; when the next sleep would overrun it, the last error returns
	// instead (default 0 = no budget beyond ctx).
	Budget time.Duration

	// BreakerThreshold opens the breaker after this many consecutive
	// failed calls (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before the next
	// call is allowed through as a probe (default 5s).
	BreakerCooldown time.Duration

	// Rand overrides the jitter source (default math/rand.Float64); tests
	// inject a deterministic one.
	Rand func() float64
}

// Client is a galsd API client. Safe for concurrent use.
type Client struct {
	opt  Options
	http *http.Client

	mu        sync.Mutex
	fails     int       // consecutive failed calls
	openUntil time.Time // breaker open until then (zero = closed)

	st clientCounters
}

// ClientStats is a snapshot of one Client's per-outcome counters: what the
// retry/breaker machinery actually did, from the caller's side of the
// wire. Read it with Client.Stats.
type ClientStats struct {
	// Calls counts API calls issued; Successes and Failures their final
	// outcomes (a call that succeeded on its third attempt is one Call,
	// one Success, two Retries).
	Calls, Successes, Failures int64
	// Attempts counts HTTP exchanges; Retries the attempts beyond each
	// call's first.
	Attempts, Retries int64
	// RateLimited, Unavailable and Timeouts count 429, 503 and 504
	// responses (per attempt, not per call); OtherAPIErrors the remaining
	// non-2xx statuses; TransportErrors failures with no HTTP status at
	// all (refused connections, resets).
	RateLimited, Unavailable, Timeouts int64
	OtherAPIErrors, TransportErrors    int64
	// BreakerOpens counts closed-to-open transitions; BreakerFastFails
	// calls refused with ErrBreakerOpen while open.
	BreakerOpens, BreakerFastFails int64
}

type clientCounters struct {
	calls, successes, failures         atomic.Int64
	attempts, retries                  atomic.Int64
	rateLimited, unavailable, timeouts atomic.Int64
	otherAPI, transport                atomic.Int64
	breakerOpens, breakerFastFails     atomic.Int64
}

// Stats snapshots the client-side outcome counters. (Server-side counters
// are a network call away via ServerStats.)
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:            c.st.calls.Load(),
		Successes:        c.st.successes.Load(),
		Failures:         c.st.failures.Load(),
		Attempts:         c.st.attempts.Load(),
		Retries:          c.st.retries.Load(),
		RateLimited:      c.st.rateLimited.Load(),
		Unavailable:      c.st.unavailable.Load(),
		Timeouts:         c.st.timeouts.Load(),
		OtherAPIErrors:   c.st.otherAPI.Load(),
		TransportErrors:  c.st.transport.Load(),
		BreakerOpens:     c.st.breakerOpens.Load(),
		BreakerFastFails: c.st.breakerFastFails.Load(),
	}
}

// note classifies one attempt's failure into the outcome counters.
func (c *Client) note(err error) {
	if err == nil {
		return
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			c.st.transport.Add(1)
		}
		return
	}
	switch ae.StatusCode {
	case http.StatusTooManyRequests:
		c.st.rateLimited.Add(1)
	case http.StatusServiceUnavailable:
		c.st.unavailable.Add(1)
	case http.StatusGatewayTimeout:
		c.st.timeouts.Add(1)
	default:
		c.st.otherAPI.Add(1)
	}
}

// New builds a Client, resolving Options defaults.
func New(opt Options) *Client {
	if opt.BaseURL == "" {
		opt.BaseURL = "http://localhost:8347"
	}
	opt.BaseURL = strings.TrimRight(opt.BaseURL, "/")
	if opt.HTTPClient == nil {
		opt.HTTPClient = http.DefaultClient
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 8
	}
	if opt.BaseBackoff <= 0 {
		opt.BaseBackoff = 100 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 10 * time.Second
	}
	if opt.BreakerThreshold == 0 {
		opt.BreakerThreshold = 5
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = 5 * time.Second
	}
	if opt.Rand == nil {
		opt.Rand = rand.Float64
	}
	return &Client{opt: opt, http: opt.HTTPClient}
}

// Health checks GET /healthz (never retried: it is the probe callers use
// to decide whether retrying anything else is worthwhile).
func (c *Client) Health(ctx context.Context) error {
	var out map[string]string
	return c.once(ctx, http.MethodGet, "/healthz", nil, &out)
}

// ServerStats fetches GET /v1/stats — the server's counters, as opposed
// to the local Stats snapshot.
func (c *Client) ServerStats(ctx context.Context) (ServerStats, error) {
	var out ServerStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Run executes one simulation via POST /v1/run.
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResult, error) {
	var out RunResult
	err := c.do(ctx, http.MethodPost, "/v1/run", req, &out)
	return out, err
}

// Telemetry fetches a run-telemetry artifact by the digest a telemetry-
// enabled Run returned, via GET /v1/telemetry/<digest>.
func (c *Client) Telemetry(ctx context.Context, digest string) (*Telemetry, error) {
	var out Telemetry
	if err := c.do(ctx, http.MethodGet, "/v1/telemetry/"+digest, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunBatch executes many simulations via POST /v1/batch. The per-run
// results carry their own error fields; a non-nil error here means the
// batch itself failed.
func (c *Client) RunBatch(ctx context.Context, reqs []RunRequest) ([]service.BatchItem, error) {
	in := map[string]any{"runs": reqs}
	var out struct {
		Results []service.BatchItem `json:"results"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/batch", in, &out)
	return out.Results, err
}

// Sweep measures a design space via POST /v1/sweep.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResult, error) {
	var out SweepResult
	err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out)
	return out, err
}

// Suite runs the Figure-6 pipeline via POST /v1/suite.
func (c *Client) Suite(ctx context.Context, req SuiteRequest) (SuiteSummary, error) {
	var out SuiteSummary
	err := c.do(ctx, http.MethodPost, "/v1/suite", req, &out)
	return out, err
}

// do runs one API call under the full retry discipline.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	c.st.calls.Add(1)
	if err := c.breakerAllow(); err != nil {
		c.st.breakerFastFails.Add(1)
		c.st.failures.Add(1)
		return err
	}

	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}

	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			sleep := c.backoff(attempt, lastErr)
			if c.opt.Budget > 0 && time.Since(start)+sleep > c.opt.Budget {
				break // out of budget: report the last real error, not a sleep
			}
			t := time.NewTimer(sleep)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				c.breakerRecord(false)
				c.st.failures.Add(1)
				return ctx.Err()
			}
			c.st.retries.Add(1)
		}
		c.st.attempts.Add(1)
		lastErr = c.attempt(ctx, method, path, body, out)
		c.note(lastErr)
		if lastErr == nil {
			c.breakerRecord(true)
			c.st.successes.Add(1)
			return nil
		}
		if !retryable(lastErr) || ctx.Err() != nil {
			break
		}
	}
	c.breakerRecord(false)
	c.st.failures.Add(1)
	return lastErr
}

// once is do without retries, for probes.
func (c *Client) once(ctx context.Context, method, path string, in, out any) error {
	c.st.calls.Add(1)
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			c.st.failures.Add(1)
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	c.st.attempts.Add(1)
	err := c.attempt(ctx, method, path, body, out)
	c.note(err)
	if err != nil {
		c.st.failures.Add(1)
	} else {
		c.st.successes.Add(1)
	}
	return err
}

// attempt performs one HTTP exchange.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.opt.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opt.Token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()

	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		msg := strings.TrimSpace(string(raw))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{
			StatusCode: resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// backoff picks the pre-attempt sleep: full jitter over the exponential
// schedule, floored at the server's Retry-After when the last failure
// carried one (the server knows when capacity returns; guessing shorter
// just earns another 429).
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	ceil := c.opt.BaseBackoff << (attempt - 1)
	if ceil > c.opt.MaxBackoff || ceil <= 0 { // <= 0: shift overflow
		ceil = c.opt.MaxBackoff
	}
	sleep := time.Duration(c.opt.Rand() * float64(ceil))
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > sleep {
		sleep = ae.RetryAfter
	}
	return sleep
}

func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable()
	}
	// Not an HTTP status: a transport-level failure (refused connection,
	// reset, dropped mid-body). Idempotent server, so retry.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// breakerAllow admits the call, or fails fast while the breaker is open.
func (c *Client) breakerAllow() error {
	if c.opt.BreakerThreshold < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.openUntil.IsZero() {
		if time.Now().Before(c.openUntil) {
			return ErrBreakerOpen
		}
		// Cooldown over: half-open. Admit this call as the probe; its
		// outcome re-opens or resets the breaker.
		c.openUntil = time.Time{}
		c.fails = c.opt.BreakerThreshold - 1
	}
	return nil
}

// breakerRecord folds a call outcome into the breaker state.
func (c *Client) breakerRecord(ok bool) {
	if c.opt.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.fails = 0
		c.openUntil = time.Time{}
		return
	}
	c.fails++
	if c.fails >= c.opt.BreakerThreshold {
		if c.openUntil.IsZero() {
			c.st.breakerOpens.Add(1)
		}
		c.openUntil = time.Now().Add(c.opt.BreakerCooldown)
	}
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

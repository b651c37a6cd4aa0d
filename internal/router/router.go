// Package router is the cluster front end: one HTTP endpoint fanning
// out to N qavd replicas with health-aware failover. A single qavd —
// however warm its rewrite cache — is a single point of failure; this
// layer turns replica death, slowness and saturation into routed-around
// events instead of client-visible errors.
//
// The moving pieces:
//
//   - a replica registry with active health probing (GET /healthz on
//     each replica, which reports drain state and load) plus passive
//     signals (consecutive errors, timeouts) feeding per-replica
//     circuit breakers (closed → open → half-open, seeded-jitter
//     cooldowns);
//   - two routing policies: canonical-affinity via rendezvous hashing
//     on the canonical pattern key — the policy that makes each
//     replica's LRU + persistent warm tier actually hit, with
//     automatic spill to the next-ranked replica when the owner is
//     open, draining or saturated — and round-robin, the baseline
//     affinity is measured against;
//   - one attempt loop: retry rounds over the ranked candidates, each
//     tried at most once per round under a per-attempt timeout, with
//     capped exponential backoff and seeded jitter between rounds. A
//     429 only skips the replica until its Retry-After horizon (never
//     a breaker failure), and a failure is retried elsewhere only when
//     that is safe: idempotent requests, or connect-class errors where
//     the request provably never reached a handler. Hedging for the
//     latency tail lives in the same loop: after a quantile-tracked
//     delay the next candidate starts beside the slow one, the first
//     final answer wins and the loser is cancelled;
//   - graceful drain on both layers: a replica reporting "draining"
//     stops receiving new work while its in-flight requests finish.
//
// Every decision is observable (per-replica endpoint metrics, the
// router.pick/retry/hedge/breaker stages, GET /v1/cluster) and every
// failure mode is reproducible: the router.pick, router.probe and
// router.hedge fault points plug into internal/fault's deterministic
// chaos plans, and HandlerTransport lets tests boot a whole cluster
// in-process.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qav/internal/bufpool"
	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/tpq"
)

// Router-side fault points (armed by chaos plans; no-ops otherwise).
var (
	faultPick  = fault.Register(names.FaultRouterPick)
	faultProbe = fault.Register(names.FaultRouterProbe)
	faultHedge = fault.Register(names.FaultRouterHedge)
)

// Config tunes one Router. The zero value of every field has a usable
// default; only Replicas is required.
type Config struct {
	// Replicas are the base URLs of the qavd fleet ("http://host:port").
	Replicas []string
	// Policy picks the routing policy: "affinity" (default) or
	// "roundrobin".
	Policy string
	// Seed drives every jittered duration (breaker cooldowns, retry
	// backoff) and makes chaos runs reproducible. 0 means seed 1.
	Seed int64
	// ProbeInterval spaces active health probes per replica
	// (default 1s; jittered ±50% so probes decorrelate).
	ProbeInterval time.Duration
	// AttemptTimeout bounds each proxied attempt (default 10s).
	AttemptTimeout time.Duration
	// Retries is the number of backoff rounds after the first pass
	// over the candidates (default 2).
	Retries int
	// RetryBackoff is the base backoff (default 25ms), doubled per
	// round, jittered, capped at 40× base.
	RetryBackoff time.Duration
	// HedgeAfter enables hedged requests: when an attempt has not
	// answered after max(HedgeAfter, tracked hedgeQuantile latency), a
	// second attempt launches on the next candidate. 0 disables
	// hedging.
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell before a half-open probe
	// (default 2s, jittered).
	BreakerCooldown time.Duration
	// Transport performs the attempts (default: a clone of
	// http.DefaultTransport keeping idleConnsPerReplica idle connections
	// per replica). Tests and qavbench install a HandlerTransport here.
	Transport http.RoundTripper
	// Metrics receives endpoint and stage observations (default: a
	// fresh registry, served at GET /metrics).
	Metrics *obs.Registry
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Policy == "" {
		cfg.Policy = "affinity"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// maxBodyBytes bounds the request and response bodies the router
// buffers; it matches qavd's own request-body bound.
const maxBodyBytes = 16 << 20

// maxRequestPresize bounds how much of a client's declared request
// length is allocated before its bytes arrive; past it the buffer grows
// only as the body does. A client may declare maxBodyBytes and then send
// nothing, and qavrouter is what clients reach.
const maxRequestPresize = 64 << 10

// idleConnsPerReplica is how many keep-alive connections the default
// transport keeps per replica. net/http's default of 2 closes and
// redials every connection past the second once a burst of concurrent
// requests ends: 16 concurrent clients made each loopback replica
// accept 55-60 connections for 800 requests
// (TestDefaultTransportKeepsReplicaConnections). The constant only has
// to stay at or above the concurrency one replica sees.
const idleConnsPerReplica = 64

// hedgeQuantile is the attempt-latency quantile that paces hedges once
// enough samples exist.
const hedgeQuantile = 0.9

// loadReport is the slice of the replica /healthz payload the router
// consumes (a structural mirror of server.HealthPayload, kept local so
// the router does not depend on the engine's package graph).
type loadReport struct {
	Status       string `json:"status"`
	Draining     bool   `json:"draining"`
	InFlight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
	Shed         int64  `json:"shed"`
	CacheEntries int    `json:"cacheEntries"`
	WarmEntries  int    `json:"warmEntries"`
	CacheHits    int64  `json:"cacheHits"`
}

// replica is one registry entry: identity, breaker, and the passive +
// probed health state the proxy reads.
type replica struct {
	name     string // authority part of the base URL; the routing identity
	nameHash uint64 // fnv64a(name), precomputed for rendezvous scoring
	base     *url.URL
	br       *breaker
	ep       *obs.Endpoint // per-replica attempt metrics ("replica:<name>")

	inflight   atomic.Int64               // router-side attempts in flight
	attempts   atomic.Int64               // total attempts routed here
	timeouts   atomic.Int64               // attempts lost to deadline
	satUntilNs atomic.Int64               // Retry-After horizon (unix nanos)
	draining   atomic.Bool                // last probe reported draining
	probeOK    atomic.Bool                // last probe succeeded
	health     atomic.Pointer[loadReport] // last successful probe payload
}

// available reports whether the proxy may try this replica now:
// breaker admits it, it is not inside a Retry-After horizon, and it
// has not announced it is draining.
func (rep *replica) available(now time.Time) bool {
	if rep.draining.Load() {
		return false
	}
	if now.UnixNano() < rep.satUntilNs.Load() {
		return false
	}
	return rep.br.Allow(now)
}

// markSaturated records a 429's Retry-After horizon; until it passes,
// the proxy routes around this replica without charging its breaker
// (saturation is load, not failure).
func (rep *replica) markSaturated(retryAfter time.Duration) {
	until := time.Now().Add(retryAfter).UnixNano()
	for {
		cur := rep.satUntilNs.Load()
		if cur >= until || rep.satUntilNs.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Router fans one HTTP endpoint out to the replica fleet. Create with
// New, serve Handler, stop with Close.
type Router struct {
	cfg    Config
	own    *http.Transport // the default transport New built, if any
	reps   []*replica
	policy policy
	reg    *obs.Registry
	mux    *http.ServeMux
	rng    *rng
	hedge  *latencyTracker

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates cfg, builds the replica registry and starts the health
// probers. Callers must Close the router to stop them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	var own *http.Transport
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
		if dt, ok := http.DefaultTransport.(*http.Transport); ok {
			own = dt.Clone()
			own.MaxIdleConns = idleConnsPerReplica * len(cfg.Replicas)
			own.MaxIdleConnsPerHost = idleConnsPerReplica
			cfg.Transport = own
		}
	}
	r := &Router{
		cfg:   cfg,
		own:   own,
		reg:   cfg.Metrics,
		rng:   newRNG(cfg.Seed),
		hedge: &latencyTracker{},
		stop:  make(chan struct{}),
	}
	switch cfg.Policy {
	case "affinity":
		r.policy = &affinity{}
	case "roundrobin":
		r.policy = &roundRobin{}
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want affinity or roundrobin)", cfg.Policy)
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("router: replica %q: %w", raw, err)
		}
		if u.Scheme == "" {
			u.Scheme = "http"
		}
		if u.Host == "" {
			return nil, fmt.Errorf("router: replica %q has no host", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("router: duplicate replica %q", u.Host)
		}
		seen[u.Host] = true
		rep := &replica{
			name:     u.Host,
			nameHash: fnv64a(u.Host),
			base:     u,
			ep:       r.reg.Endpoint("replica:" + u.Host),
		}
		rep.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, r.rng,
			func(from, to breakerState, inState time.Duration) {
				r.reg.ObserveStage(obs.StageRouterBreaker, inState)
			})
		r.reps = append(r.reps, rep)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", r.protect("healthz", r.handleHealth))
	mux.Handle("GET /v1/cluster", r.protect("cluster", r.handleCluster))
	mux.Handle("GET /metrics", r.protect("metrics", r.handleMetrics))
	mux.Handle("/", r.protect("proxy", r.handleProxy))
	r.mux = mux
	for _, rep := range r.reps {
		r.wg.Add(1)
		go r.probeLoop(rep)
	}
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// protect isolates handler panics (including injected ActPanic on the
// router's own fault points): a panic becomes a clean 500 JSON error
// instead of killing the process — the router is exactly the component
// that must not die when a dependency misbehaves.
func (r *Router) protect(op string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wrote := &wroteWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			ie := guard.FromPanic(v, "router "+op)
			if !wrote.wrote {
				httpError(wrote, http.StatusInternalServerError, ie)
			}
		}()
		h(wrote, req)
	})
}

// wroteWriter remembers whether anything was written, so the panic
// path never writes a second header.
type wroteWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *wroteWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *wroteWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// StartDraining flips the router's own /healthz to 503; one-way.
func (r *Router) StartDraining() { r.draining.Store(true) }

// Close stops the health probers and waits for them to exit. It drops
// the idle connections of the transport New built, never those of one
// the caller supplied, which others may share.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	if r.own != nil {
		r.own.CloseIdleConnections()
	}
}

// probeLoop actively probes one replica's /healthz on a jittered
// interval. Probe outcomes feed the breaker — which is how an open
// breaker recovers without client traffic: the probe that succeeds
// after a cooldown closes it again.
func (r *Router) probeLoop(rep *replica) {
	defer r.wg.Done()
	defer guard.Rescue("router.probe", nil)
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		r.probeOnce(rep)
		timer.Reset(r.rng.jitter(2 * r.cfg.ProbeInterval)) // jitter(2d) ∈ [d, 2d)
	}
}

// probeOnce performs one health probe against rep and classifies it
// once: a 200 closes the breaker, an orderly drain only stops routing
// there, and anything else — including an unreachable replica —
// charges the breaker.
func (r *Router) probeOnce(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeInterval)
	defer cancel()
	code, draining := 0, false
	if faultProbe.Hit(ctx) == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/healthz").String(), nil)
		var resp *http.Response
		if err == nil {
			resp, err = r.cfg.Transport.RoundTrip(req)
		}
		if err == nil {
			var lr loadReport
			if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lr); err == nil {
				rep.health.Store(&lr)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			code, draining = resp.StatusCode, lr.Draining
		}
	}
	rep.probeOK.Store(code == http.StatusOK)
	switch {
	case code == http.StatusOK:
		rep.draining.Store(false)
		rep.br.Success(time.Now())
	case code == http.StatusServiceUnavailable && draining:
		// An orderly drain is not a fault: stop routing there but do
		// not charge the breaker — the replica is finishing its work.
		rep.draining.Store(true)
	default:
		rep.br.Failure(time.Now())
	}
}

// idempotent reports whether the request may be retried after it might
// have reached a handler. All the compute endpoints are pure functions
// of their body, so they are; POST /v1/views mutates the replica's
// view store and only fails over on connect-class errors.
func idempotent(req *http.Request) bool {
	if req.Method == http.MethodGet || req.Method == http.MethodHead {
		return true
	}
	switch req.URL.Path {
	case "/v1/rewrite", "/v1/rewrite/batch", "/v1/answer", "/v1/contain":
		return true
	}
	return false
}

// outcome is an attempt's classification, made once in attempt: it
// drives the replica's breaker and saturation bookkeeping there and
// the retry decision in route.
type outcome uint8

const (
	final     outcome = iota // the client's answer: a response, or a failure no replica may retry
	saturated                // a 429: skip the replica until its Retry-After horizon
	failed                   // a failure the next candidate may safely retry
)

// failure classifies a failed attempt: another replica may retry it
// when the endpoint is idempotent or err is connect-class, so the
// request never reached a handler — the test fabric's *DownError, or
// the *net.OpError with Op "dial" net/http reports for a refused
// connection or an unknown host. Otherwise the failure is final.
func failure(idem bool, err error) outcome {
	var de *DownError
	var oe *net.OpError
	if idem || errors.As(err, &de) || errors.As(err, &oe) && oe.Op == "dial" {
		return failed
	}
	return final
}

// attemptResult is one attempt's outcome: a fully buffered response
// (so retry-after-5xx never replays a byte already streamed to the
// client) or an error. body is read into buf, drawn from bufpool;
// whoever drops the result hands it back with release.
type attemptResult struct {
	rep     *replica
	status  int
	header  http.Header
	buf     *[]byte
	body    []byte
	err     error
	outcome outcome
}

// handleProxy is the catch-all: buffer the body, rank the replicas,
// then route the request over them.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("router: draining"))
		return
	}
	// The request body is never pooled: a cancelled hedge loser, or the
	// transport writing it, may still read it after route returns.
	body, err := readBody(nil, http.MaxBytesReader(w, req.Body, maxBodyBytes), req.ContentLength, maxRequestPresize)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}

	pickStart := time.Now()
	key := affinityKey(req.URL.Path, body)
	order := r.policy.order(key, r.reps)
	r.reg.ObserveStage(obs.StageRouterPick, time.Since(pickStart))
	if err := faultPick.Hit(req.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	res, saturated := r.route(req, body, order)
	switch {
	case res != nil && res.err != nil:
		// A failure no other replica may retry: a transport error on a
		// non-idempotent request (the replica may or may not have
		// applied it), or a response over the body limit.
		httpError(w, http.StatusBadGateway, res.err)
	case res != nil:
		// Propagate the replica's response verbatim, plus attribution
		// and the length of the body as it was actually read.
		h := w.Header()
		for k, vs := range res.header {
			h[k] = vs
		}
		h.Set("X-QAV-Replica", res.rep.name)
		if req.Method != http.MethodHead {
			h.Set("Content-Length", strconv.Itoa(len(res.body)))
		}
		w.WriteHeader(res.status)
		w.Write(res.body)
	case saturated:
		// Every live replica is inside a Retry-After horizon: the
		// cluster is saturated, not broken. Tell the client when the
		// earliest replica expects capacity back.
		secs := int(r.minSaturationWait() / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, errors.New("router: all replicas saturated"))
	default:
		httpError(w, http.StatusBadGateway, errors.New("router: no replica could serve the request"))
	}
	if res != nil {
		res.release()
	}
}

// route walks retry rounds over the policy's candidate order. Within a
// round a cursor moves down the order and tries each available
// candidate at most once: the next one starts when every running
// attempt has failed retryably, or — for a hedged request — when the
// hedge delay passes while one attempt runs alone, so at most two are
// ever in flight. The first final result wins and the other attempt is
// cancelled. Without one, route reports whether the last round saw a
// saturated replica.
func (r *Router) route(req *http.Request, body []byte, order []int) (*attemptResult, bool) {
	ctx := req.Context()
	// Returning cancels every attempt this request started, the
	// losing one included.
	cancels := make([]context.CancelFunc, 0, 4)
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	idem := idempotent(req)
	hedge := idem && r.cfg.HedgeAfter > 0
	// A round drains every attempt it starts before the next round
	// begins, so one slot per candidate means no send ever blocks —
	// not even a cancelled loser's (leaktest pins that).
	results := make(chan *attemptResult, len(order))
	var sawSaturated bool
	for round := 0; ; round++ {
		if round > 0 {
			// Capped exponential backoff with seeded jitter between
			// rounds, credited to the router.retry stage. Saturated-only
			// rounds wait out the nearest Retry-After horizon instead.
			d := r.backoff(round)
			if sawSaturated {
				if wait := r.minSaturationWait(); wait > d {
					d = wait
				}
			}
			r.reg.ObserveStage(obs.StageRouterRetry, d)
			select {
			case <-ctx.Done():
				return &attemptResult{err: ctx.Err()}, false
			case <-time.After(d):
			}
			sawSaturated = false
		}
		cursor, running := 0, 0
		// next starts the next available candidate, if there is one.
		next := func() bool {
			for cursor < len(order) {
				rep := r.reps[order[cursor]]
				cursor++
				if !rep.available(time.Now()) {
					continue
				}
				actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
				cancels = append(cancels, cancel)
				running++
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					defer guard.Rescue("router.attempt", func(err error) {
						results <- &attemptResult{rep: rep, err: err, outcome: failure(idem, err)}
					})
					results <- r.attempt(actx, rep, req, body, idem)
				}()
				return true
			}
			return false
		}
		for next() {
			// One attempt runs alone: arm the hedge if a partner may
			// remain.
			var hedgeC <-chan time.Time
			var delay time.Duration
			if hedge && cursor < len(order) {
				delay = r.hedge.delay(r.cfg.HedgeAfter)
				hedgeC = time.After(delay)
			}
			for running > 0 {
				select {
				case res := <-results:
					running--
					switch res.outcome {
					case final:
						return res, false
					case saturated:
						sawSaturated = true
					case failed:
					}
					// The next candidate's answer replaces this one.
					res.release()
				case <-hedgeC:
					// The lone attempt is slow: start its partner,
					// unless the chaos plan says the hedger itself is
					// broken (then just keep waiting).
					hedgeC = nil
					if faultHedge.Hit(ctx) == nil && next() {
						r.reg.ObserveStage(obs.StageRouterHedge, delay)
					}
				}
			}
		}
		if round >= r.cfg.Retries {
			return nil, sawSaturated
		}
	}
}

// backoff returns the jittered, capped exponential backoff for round
// (1-based).
func (r *Router) backoff(round int) time.Duration {
	d := r.cfg.RetryBackoff
	for i := 1; i < round; i++ {
		d *= 2
		if d > 40*r.cfg.RetryBackoff {
			d = 40 * r.cfg.RetryBackoff
			break
		}
	}
	return r.rng.jitter(2 * d) // jitter(2d) ∈ [d, 2d)
}

// minSaturationWait returns the shortest remaining Retry-After horizon
// across the fleet (0 when none is saturated).
func (r *Router) minSaturationWait() time.Duration {
	now := time.Now().UnixNano()
	var min int64
	for _, rep := range r.reps {
		until := rep.satUntilNs.Load()
		if until <= now {
			continue
		}
		if d := until - now; min == 0 || d < min {
			min = d
		}
	}
	return time.Duration(min)
}

// attempt performs one proxied request against rep, fully buffers the
// response and classifies the outcome once: failures charge the
// breaker, 429s only mark saturation, answers close the breaker and
// pace the hedge.
func (r *Router) attempt(ctx context.Context, rep *replica, orig *http.Request, body []byte, idem bool) *attemptResult {
	start := time.Now()
	rep.inflight.Add(1)
	rep.attempts.Add(1)
	defer rep.inflight.Add(-1)

	res := &attemptResult{rep: rep}
	u := *rep.base
	u.Path = orig.URL.Path
	u.RawQuery = orig.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, orig.Method, u.String(), bytes.NewReader(body))
	if err == nil {
		req.Header = orig.Header.Clone()
		var resp *http.Response
		if resp, err = r.cfg.Transport.RoundTrip(req); err == nil {
			// A replica's declared length is trusted in full: qavd
			// sets it from a body it has already built.
			res.buf = bufpool.Get()
			res.body, err = readBody(*res.buf, resp.Body, resp.ContentLength, maxBodyBytes+1)
			resp.Body.Close()
			res.status, res.header = resp.StatusCode, resp.Header
		}
	}
	elapsed := time.Since(start)
	now := time.Now()
	switch {
	case err != nil || res.status >= 500:
		if err != nil {
			res.status, res.err = 0, err
			if errors.Is(err, context.DeadlineExceeded) {
				rep.timeouts.Add(1)
			}
		}
		rep.br.Failure(now)
		res.outcome = failure(idem, err)
	case len(res.body) > maxBodyBytes:
		// Every replica would send the same oversized body, so neither
		// retry it elsewhere nor charge the breaker: answer 502.
		res.err = fmt.Errorf("router: replica %s response exceeds the %d-byte limit", rep.name, maxBodyBytes)
	case res.status == http.StatusTooManyRequests:
		// Saturation, not failure: honor the replica's Retry-After.
		ra := time.Second
		if secs, err := strconv.Atoi(res.header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		rep.markSaturated(ra)
		res.outcome = saturated
	default:
		rep.br.Success(now)
		r.hedge.observe(elapsed)
	}
	rep.ep.Observe(res.status, elapsed)
	return res
}

// release hands res's body buffer back to bufpool once nothing refers
// to it any more.
func (res *attemptResult) release() { bufpool.Put(res.buf, res.body) }

// readBody reads r to EOF into buf's storage and returns what it read.
// declared is the length the sender announced (-1 when it announced
// none), and presize bounds how much of it is allocated before any byte
// arrives. Past that, the buffer at most doubles each time it fills, so
// it stays within about twice what has actually arrived, and it never
// grows beyond declared+1 bytes while the body keeps to its
// declaration: the spare byte lets the last read see EOF. A wrong
// declaration costs only growth. At most maxBodyBytes+1 bytes are read;
// one byte past the limit tells an oversized body from one that fits
// exactly.
func readBody(buf []byte, r io.Reader, declared int64, presize int) ([]byte, error) {
	const limit = maxBodyBytes + 1
	want := -1 // the buffer size that would hold the declared body
	if declared >= 0 && declared < limit {
		want = int(declared) + 1
	}
	b := buf[:0]
	if n := min(want, presize); cap(b) < n {
		b = make([]byte, 0, n)
	}
	for len(b) < limit {
		if len(b) == cap(b) {
			n := max(2*cap(b), 512)
			if len(b) < want {
				n = min(n, want)
			}
			b = append(make([]byte, 0, min(n, limit)), b...)
		}
		n, err := r.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// affinityKey derives the rendezvous key for a request: the canonical
// forms of the query/view patterns in the body, so equivalent queries
// (same canonical pattern, different spelling) land on the same
// replica and hit its rewrite cache. Requests the router cannot
// decode key on their raw body, and GETs on their path.
func affinityKey(path string, body []byte) string {
	if len(body) == 0 {
		return path
	}
	var probe struct {
		Query     string `json:"query"`
		View      string `json:"view"`
		ViewName  string `json:"viewName"`
		Schema    string `json:"schema"`
		Recursive bool   `json:"recursive"`
		P         string `json:"p"`
		Q         string `json:"q"`
		Items     []struct {
			Query  string `json:"query"`
			View   string `json:"view"`
			Schema string `json:"schema"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return string(body)
	}
	// A batch routes on its first item: batches assembled per canonical
	// query group (the common shape) stay on their owner.
	if len(probe.Items) > 0 {
		return canonicalOr(probe.Items[0].Query) + "\x00" +
			canonicalOr(probe.Items[0].View) + "\x00" + probe.Items[0].Schema
	}
	if probe.P != "" || probe.Q != "" {
		return canonicalOr(probe.P) + "\x00" + canonicalOr(probe.Q) + "\x00" + probe.Schema
	}
	view := probe.View
	if view == "" {
		view = probe.ViewName
	}
	if probe.Query == "" && view == "" {
		return string(body)
	}
	key := canonicalOr(probe.Query) + "\x00" + canonicalOr(view) + "\x00" + probe.Schema
	if probe.Recursive {
		key += "\x00r"
	}
	return key
}

// canonicalOr parses expr as a tree pattern and returns its canonical
// form, or expr itself when it does not parse (the replica will reject
// it consistently, so consistency of routing still holds).
func canonicalOr(expr string) string {
	if expr == "" {
		return ""
	}
	p, err := tpq.Parse(expr)
	if err != nil {
		return expr
	}
	return p.Canonical()
}

// ReplicaStatus is the /v1/cluster view of one replica.
type ReplicaStatus struct {
	Name        string      `json:"name"`
	State       string      `json:"state"` // breaker state
	Healthy     bool        `json:"healthy"`
	Draining    bool        `json:"draining"`
	ConsecErrs  int64       `json:"consecErrs"`
	Attempts    int64       `json:"attempts"`
	Timeouts    int64       `json:"timeouts"`
	InFlight    int64       `json:"inflight"`
	SaturatedMs int64       `json:"saturatedMs,omitempty"` // remaining Retry-After horizon
	Transitions int64       `json:"breakerTransitions"`
	Load        *loadReport `json:"load,omitempty"`
}

// ClusterStatus is the GET /v1/cluster document.
type ClusterStatus struct {
	Policy   string          `json:"policy"`
	Draining bool            `json:"draining"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status returns the cluster document (also served at /v1/cluster).
func (r *Router) Status() ClusterStatus {
	now := time.Now()
	cs := ClusterStatus{Policy: r.policy.name(), Draining: r.draining.Load()}
	for _, rep := range r.reps {
		state, fails, transitions := rep.br.Snapshot()
		rs := ReplicaStatus{
			Name:        rep.name,
			State:       state.String(),
			Healthy:     rep.probeOK.Load(),
			Draining:    rep.draining.Load(),
			ConsecErrs:  int64(fails),
			Attempts:    rep.attempts.Load(),
			Timeouts:    rep.timeouts.Load(),
			InFlight:    rep.inflight.Load(),
			Transitions: transitions,
			Load:        rep.health.Load(),
		}
		if until := rep.satUntilNs.Load(); until > now.UnixNano() {
			rs.SaturatedMs = (until - now.UnixNano()) / int64(time.Millisecond)
		}
		cs.Replicas = append(cs.Replicas, rs)
	}
	sort.Slice(cs.Replicas, func(i, j int) bool { return cs.Replicas[i].Name < cs.Replicas[j].Name })
	return cs
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Status())
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.reg.Snapshot())
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	status := "ok"
	code := http.StatusOK
	if r.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"draining": r.draining.Load(),
		"replicas": len(r.reps),
	})
}

// latencyTracker keeps the last window of successful attempt latencies
// and answers "what delay should pace a hedge": the configured floor
// until enough samples exist, then max(floor, tracked quantile).
type latencyTracker struct {
	mu   sync.Mutex
	ring [128]time.Duration
	n    int // total observed
}

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n%len(t.ring)] = d
	t.n++
	t.mu.Unlock()
}

func (t *latencyTracker) delay(floor time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.n
	if size > len(t.ring) {
		size = len(t.ring)
	}
	if size < 16 {
		return floor
	}
	buf := make([]time.Duration, size)
	copy(buf, t.ring[:size])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	if q := buf[int(float64(size)*hedgeQuantile)]; q > floor {
		return q
	}
	return floor
}

// writeJSON buffers the encoding so a marshal failure becomes a clean
// 500 instead of a half-written 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, code int, err error) {
	msg, _ := json.Marshal(err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"error\": %s\n}\n", msg)
}

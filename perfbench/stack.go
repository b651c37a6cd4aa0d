package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"qav/internal/engine"
	"qav/internal/limits"
	"qav/internal/obs"
	"qav/internal/router"
	"qav/internal/server"
)

// replicas is the fleet size behind the router.
const replicas = 2

// qavdConfig is the engine configuration cmd/qavd builds from its
// default flags: a 1024-entry cache, a 30s rewrite deadline, a 100ms
// slow-query threshold, and an admission gate of 4×GOMAXPROCS in
// flight with a 128-deep queue and a 1s queue timeout. cacheDir
// enables the persistent tier (empty: memory-only, qavd's default).
func qavdConfig(cacheDir string, snapshot time.Duration) engine.Config {
	return engine.Config{
		CacheSize:          1024,
		Timeout:            30 * time.Second,
		SlowQueryThreshold: 100 * time.Millisecond,
		SlowLogSize:        128,
		Gate: limits.New(limits.Config{
			MaxInFlight:  4 * runtime.GOMAXPROCS(0),
			MaxQueue:     128,
			QueueTimeout: time.Second,
		}),
		CacheDir:         cacheDir,
		SnapshotInterval: snapshot,
	}
}

// stack is the serving stack of one run, booted in-process from the
// public constructors: a router with qavrouter's defaults in front of
// two qavd-configured replicas, joined by router.HandlerTransport.
// The benchmark wraps the two boundaries it composes itself — client →
// router handler, and router → each replica handler — to time them.
type stack struct {
	router  *router.Router
	reg     *obs.Registry // the router's registry
	front   http.Handler  // the router handler behind the router span
	engines []*engine.Engine
	// direct are the wrapped replica handlers, for set-up traffic that
	// must reach one particular replica.
	direct []http.Handler

	// respBytes counts the body bytes the replica handlers wrote.
	respBytes atomic.Int64
}

// bootStack builds the stack; config returns replica i's engine
// configuration, tr records spans when an op carries a trace id.
func bootStack(config func(i int) (engine.Config, error), tr *tracer) (*stack, error) {
	st := &stack{reg: obs.NewRegistry()}
	fabric := router.NewHandlerTransport()
	urls := make([]string, replicas)
	for i := 0; i < replicas; i++ {
		cfg, err := config(i)
		if err != nil {
			st.close()
			return nil, err
		}
		eng := engine.New(cfg)
		st.engines = append(st.engines, eng)
		h := st.replicaSpan(tr, spanReplica0+spanName(i), server.NewService(eng).Handler())
		st.direct = append(st.direct, h)
		host := fmt.Sprintf("replica-%d", i)
		fabric.Register(host, h)
		urls[i] = "http://" + host
	}
	rt, err := router.New(router.Config{
		Replicas:  urls,
		Policy:    "affinity",
		Seed:      1,
		Retries:   2,
		Transport: fabric,
		Metrics:   st.reg,
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("booting router: %w", err)
	}
	st.router = rt
	st.front = routerSpan(tr, rt.Handler())
	return st, nil
}

// close stops the router's probers and flushes and closes every
// engine's persistent tier.
func (st *stack) close() error {
	if st.router != nil {
		st.router.Close()
	}
	var first error
	for _, eng := range st.engines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// countingWriter counts the body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// replicaSpan wraps a replica handler: it counts response bytes and,
// for traced ops, records the replica span.
func (st *stack) replicaSpan(tr *tracer, name spanName, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		defer func() { st.respBytes.Add(cw.n) }()
		op, traced := opFrom(r.Context())
		if !traced {
			h.ServeHTTP(cw, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(cw, r)
		tr.record(op, name, start, tr.now())
	})
}

// routerSpan wraps the router handler to record the router span of
// traced ops.
func routerSpan(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, traced := opFrom(r.Context())
		if !traced {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.record(op, spanRouter, start, tr.now())
	})
}

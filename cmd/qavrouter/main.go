// Command qavrouter fans a fleet of qavd replicas into one HTTP
// endpoint with health-aware failover, retries, hedging and
// per-replica circuit breakers. See internal/router for the policy and
// failure-handling machinery.
//
//	qavrouter -addr :8090 -replicas http://localhost:8080,http://localhost:8081,http://localhost:8082
//	curl -s localhost:8090/v1/rewrite -d '{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}'
//	curl -s localhost:8090/v1/cluster   # per-replica breaker/health/load state
//	curl -s localhost:8090/metrics      # router stages + per-replica attempt metrics
//
// The routing policy is canonical-affinity: requests are routed by
// rendezvous hashing on the canonical pattern key, so each replica's
// rewrite cache (in-memory LRU + persistent warm tier) accumulates
// hits for its share of the keyspace, with automatic spill when the
// owner is down, draining or saturated.
//
// On SIGINT/SIGTERM the router drains: its own /healthz flips to 503,
// in-flight proxied requests finish (bounded by -drain), and the
// health probers stop.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qav/internal/obs"
	"qav/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated qavd base URLs (required)")
	seed := flag.Int64("seed", 1, "seed for jittered durations (breaker cooldowns, retry backoff)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health probe spacing per replica (jittered)")
	attemptTimeout := flag.Duration("attempt-timeout", 10*time.Second, "per-attempt deadline against a replica")
	retries := flag.Int("retries", 2, "backoff rounds after the first pass over the replicas")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "base retry backoff (doubled per round, jittered, capped)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge idempotent requests after this delay (0 = hedging off); the tracked tail quantile raises it")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a replica's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-state dwell before a half-open probe (jittered)")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	flag.Parse()

	if *replicas == "" {
		log.Fatal("qavrouter: -replicas is required (comma-separated qavd base URLs)")
	}
	rt, err := router.New(router.Config{
		Replicas:         strings.Split(*replicas, ","),
		Seed:             *seed,
		ProbeInterval:    *probeInterval,
		AttemptTimeout:   *attemptTimeout,
		Retries:          *retries,
		RetryBackoff:     *retryBackoff,
		HedgeAfter:       *hedgeAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		log.Fatalf("qavrouter: %v", err)
	}
	obs.Publish("qavrouter", func() any { return rt.Status() })

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("qavrouter listening on %s, %d replicas", *addr, len(strings.Split(*replicas, ",")))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		rt.StartDraining()
		log.Printf("qavrouter: signal received, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("qavrouter: forced shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("qavrouter: %v", err)
		}
		rt.Close()
		log.Printf("qavrouter: stopped")
	}
}

package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qav/internal/leaktest"
)

// fakeReplica is a minimal qavd stand-in: /healthz reports ok (or
// draining), /v1/rewrite echoes the replica name, and failure modes
// are switchable per test.
type fakeReplica struct {
	name string
	mux  *http.ServeMux

	mu       sync.Mutex
	status   int    // response status for /v1/rewrite (default 200)
	retryAft string // Retry-After header when status is 429
	draining bool
}

func (f *fakeReplica) set(fn func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func newFakeReplica(name string) *fakeReplica {
	f := &fakeReplica{name: name, status: http.StatusOK}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		draining := f.draining
		f.mu.Unlock()
		code := http.StatusOK
		if draining {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"status":"ok","draining":%v,"inflight":0,"queued":0}`, draining)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status, retryAft := f.status, f.retryAft
		f.mu.Unlock()
		if status != http.StatusOK {
			if retryAft != "" {
				w.Header().Set("Retry-After", retryAft)
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"injected %d"}`, status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"replica":%q}`, f.name)
	})
	f.mux = mux
	return f
}

// testCluster boots n fake replicas behind a HandlerTransport and a
// router over them. Callers must call close().
func testCluster(t *testing.T, n int, tweak func(*Config)) (*Router, *HandlerTransport, []*fakeReplica, func()) {
	t.Helper()
	ht := NewHandlerTransport()
	var reps []*fakeReplica
	var urls []string
	for i := 0; i < n; i++ {
		f := newFakeReplica(fmt.Sprintf("replica-%d", i))
		ht.Register(f.name, f.mux)
		reps = append(reps, f)
		urls = append(urls, "http://"+f.name)
	}
	cfg := Config{
		Replicas:         urls,
		Seed:             7,
		ProbeInterval:    5 * time.Millisecond,
		AttemptTimeout:   250 * time.Millisecond,
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		Transport:        ht,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, ht, reps, r.Close
}

func doRewrite(t *testing.T, r *Router, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	return rec
}

const rewriteBody = `{"query":"//a[b]//c","view":"//a//c"}`

func TestAffinityStableOwner(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	owner := ""
	for i := 0; i < 10; i++ {
		rec := doRewrite(t, r, rewriteBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		got := rec.Header().Get("X-QAV-Replica")
		if got == "" {
			t.Fatal("missing X-QAV-Replica attribution")
		}
		if owner == "" {
			owner = got
		} else if got != owner {
			t.Fatalf("affinity moved: %s then %s", owner, got)
		}
	}
	// An equivalent spelling of the same canonical pattern must land on
	// the same owner — the whole point of canonical-affinity routing.
	rec := doRewrite(t, r, `{"query":"//a[.//c][b]//c","view":"//a//c"}`)
	_ = rec // different canonical key may differ; just must not error
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestFailoverOnDownReplica(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	owner := rec.Header().Get("X-QAV-Replica")

	ht.SetDown(owner, true)
	rec = doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("after kill: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-QAV-Replica"); got == owner {
		t.Fatalf("request still routed to dead replica %s", owner)
	}
}

func TestBreakerOpensAndRecloses(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, _, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	ht.SetDown("replica-0", true)
	waitFor(t, time.Second, func() bool {
		return replicaState(r, "replica-0") == "open"
	})
	ht.SetDown("replica-0", false)
	// The active prober's half-open probe must re-close the breaker
	// without any client traffic.
	waitFor(t, time.Second, func() bool {
		return replicaState(r, "replica-0") == "closed"
	})
}

func replicaState(r *Router, name string) string {
	for _, rs := range r.Status().Replicas {
		if rs.Name == name {
			return rs.State
		}
	}
	return ""
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSaturationHonorsRetryAfter(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, func(c *Config) { c.Retries = 0 })
	defer closeAll()

	// One replica saturated: traffic must spill to the other.
	reps[0].set(func(f *fakeReplica) { f.status = http.StatusTooManyRequests; f.retryAft = "2" })
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("spill failed: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-QAV-Replica"); got != "replica-1" {
		t.Fatalf("routed to %s, want replica-1", got)
	}

	// Both saturated: the router reports 429 with a Retry-After of its
	// own instead of a 5xx.
	reps[1].set(func(f *fakeReplica) { f.status = http.StatusTooManyRequests; f.retryAft = "2" })
	rec = doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", rec.Code, rec.Body.String())
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("want Retry-After >= 1, got %q", rec.Header().Get("Retry-After"))
	}
	// Saturation must not have charged the breakers.
	for _, rs := range r.Status().Replicas {
		if rs.State != "closed" {
			t.Fatalf("429s opened breaker on %s", rs.Name)
		}
	}
}

func TestDrainingReplicaStopsReceiving(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	owner := rec.Header().Get("X-QAV-Replica")
	var idx int
	fmt.Sscanf(owner, "replica-%d", &idx)
	reps[idx].set(func(f *fakeReplica) { f.draining = true })
	waitFor(t, time.Second, func() bool {
		for _, rs := range r.Status().Replicas {
			if rs.Name == owner {
				return rs.Draining
			}
		}
		return false
	})
	for i := 0; i < 5; i++ {
		rec := doRewrite(t, r, rewriteBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get("X-QAV-Replica"); got == owner {
			t.Fatalf("request routed to draining replica %s", owner)
		}
	}
	// Draining is orderly: the breaker stays closed.
	if st := replicaState(r, owner); st != "closed" {
		t.Fatalf("draining opened breaker: %s", st)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, _, closeAll := testCluster(t, 3, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	defer closeAll()

	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	owner := rec.Header().Get("X-QAV-Replica")

	// Slow the owner far past the hedge delay but inside the attempt
	// timeout: the hedge on the next-ranked replica must win.
	ht.SetDelay(owner, 150*time.Millisecond)
	start := time.Now()
	rec = doRewrite(t, r, rewriteBody)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-QAV-Replica"); got == owner {
		t.Fatalf("slow owner %s still won", owner)
	}
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("hedge did not cut the tail: %v", elapsed)
	}
	// Leaktest (deferred) pins that the losing attempt's goroutine is
	// cancelled and gone after Close.
}

// TestHedgePartnerTriedOncePerRound pins that a round tries each
// candidate at most once: a hedge partner that fails is not attempted
// again as the next primary of the same round.
func TestHedgePartnerTriedOncePerRound(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, reps, closeAll := testCluster(t, 3, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
		c.Retries = -1 // one round
		c.BreakerThreshold = 10
	})
	defer closeAll()

	for _, f := range reps {
		f.set(func(f *fakeReplica) { f.status = http.StatusInternalServerError })
	}
	order := r.policy.order(affinityKey("/v1/rewrite", []byte(rewriteBody)), r.reps)
	ht.SetDelay(r.reps[order[0]].name, 30*time.Millisecond) // the owner answers after the hedge
	before := replicaAttempts(r)
	if rec := doRewrite(t, r, rewriteBody); rec.Code != http.StatusBadGateway {
		t.Fatalf("want 502 with every replica failing, got %d: %s", rec.Code, rec.Body.String())
	}
	for name, n := range replicaAttempts(r) {
		if got := n - before[name]; got > 1 {
			t.Errorf("%s attempted %d times in one round, want at most 1", name, got)
		}
	}
}

func replicaAttempts(r *Router) map[string]int64 {
	out := make(map[string]int64)
	for _, rs := range r.Status().Replicas {
		out[rs.Name] = rs.Attempts
	}
	return out
}

// TestOversizedResponseIs502 pins that a replica response over the
// body limit is refused with a 502 naming the limit instead of being
// forwarded truncated, and that it is neither retried on another
// replica nor charged to a breaker (every replica would send the same
// body).
func TestOversizedResponseIs502(t *testing.T) {
	defer leaktest.Check(t)()
	r, ht, reps, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	big := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	for _, f := range reps {
		ht.Register(f.name, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/rewrite" {
				f.mux.ServeHTTP(w, req)
				return
			}
			w.Write(big)
		}))
	}
	before := totalAttempts(r)
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("want 502 for an oversized response, got %d (%d body bytes)", rec.Code, rec.Body.Len())
	}
	if limit := strconv.Itoa(maxBodyBytes); !strings.Contains(rec.Body.String(), limit) {
		t.Fatalf("error does not name the %s-byte limit: %s", limit, rec.Body.String())
	}
	if got := totalAttempts(r) - before; got != 1 {
		t.Fatalf("oversized response attempted %d times, want 1", got)
	}
	for _, rs := range r.Status().Replicas {
		if rs.ConsecErrs != 0 || rs.State != "closed" {
			t.Fatalf("oversized response charged the breaker of %s: %+v", rs.Name, rs)
		}
	}
}

// TestDialErrorFailsOverOnSocket drives a non-idempotent request
// through net/http over loopback: the first-ranked replica is a closed
// port, so the dial fails with a *net.OpError before any handler could
// see the request, and the router must fail over to the live replica.
func TestDialErrorFailsOverOnSocket(t *testing.T) {
	defer leaktest.Check(t)()
	live := httptest.NewServer(newFakeReplica("live").mux)
	defer live.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	r, err := New(Config{
		Replicas:         []string{"http://" + dead, live.URL},
		Policy:           "roundrobin", // the first request ranks the dead port first
		Retries:          -1,
		BreakerThreshold: 10,
		Transport:        http.DefaultTransport,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	req := httptest.NewRequest("POST", "/v1/views", strings.NewReader(`{"name":"x"}`))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("want failover to the live replica, got %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get("X-QAV-Replica"), strings.TrimPrefix(live.URL, "http://"); got != want {
		t.Fatalf("served by %q, want %q", got, want)
	}
	if n := replicaAttempts(r)[dead]; n != 1 {
		t.Fatalf("dead replica attempted %d times, want 1", n)
	}
}

func TestRouterDrainingReturns503(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	r.StartDraining()
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 while draining, got %d", rec.Code)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", hrec.Code)
	}
}

func TestNonIdempotentNotRetriedOn5xx(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, reps, closeAll := testCluster(t, 2, nil)
	defer closeAll()

	reps[0].set(func(f *fakeReplica) { f.status = http.StatusInternalServerError })
	reps[1].set(func(f *fakeReplica) { f.status = http.StatusInternalServerError })
	// Idempotent: retried across replicas, eventually surfaces 500
	// after exhausting candidates (here both are broken).
	rec := doRewrite(t, r, rewriteBody)
	if rec.Code != http.StatusBadGateway && rec.Code != http.StatusInternalServerError {
		t.Fatalf("want gateway failure, got %d", rec.Code)
	}

	// Non-idempotent POST /v1/views: the first 5xx surfaces untouched
	// (attempts == 1 more than before on exactly one replica).
	before := totalAttempts(r)
	req := httptest.NewRequest("POST", "/v1/views", strings.NewReader(`{"name":"x"}`))
	vrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(vrec, req)
	if vrec.Code != http.StatusInternalServerError {
		t.Fatalf("want 500 passthrough, got %d", vrec.Code)
	}
	if got := totalAttempts(r) - before; got != 1 {
		t.Fatalf("non-idempotent request attempted %d times, want 1", got)
	}
}

func totalAttempts(r *Router) int64 {
	var n int64
	for _, rs := range r.Status().Replicas {
		n += rs.Attempts
	}
	return n
}

func TestClusterStatusDocument(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, closeAll := testCluster(t, 3, nil)
	defer closeAll()

	waitFor(t, time.Second, func() bool {
		for _, rs := range r.Status().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})
	req := httptest.NewRequest("GET", "/v1/cluster", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	var cs ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Policy != "affinity" || len(cs.Replicas) != 3 {
		t.Fatalf("unexpected status: %+v", cs)
	}
	for _, rs := range cs.Replicas {
		if rs.State != "closed" || !rs.Healthy || rs.Load == nil {
			t.Fatalf("replica %s not healthy in status: %+v", rs.Name, rs)
		}
	}
}

// TestRendezvousStability pins the ~1/N migration property: adding a
// replica moves keys only onto the new replica, and removing one moves
// only the keys it owned.
func TestRendezvousStability(t *testing.T) {
	three := namedReplicas("replica-0", "replica-1", "replica-2")
	four := append(append([]*replica{}, three...), namedReplicas("replica-3")...)
	owner := func(reps []*replica, key string) string {
		return reps[(&affinity{}).order(key, reps)[0]].name
	}

	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("//a[b%d]//c\x00//a//c\x00", i)
		before := owner(three, key)
		after := owner(four, key)
		if before != after {
			moved++
			if after != "replica-3" {
				t.Fatalf("key %d moved %s -> %s, not to the new replica", i, before, after)
			}
		}
	}
	// Expect ~keys/4 to move; allow generous slack either side.
	if moved < keys/8 || moved > keys/2 {
		t.Fatalf("adding a replica moved %d/%d keys, want ~%d", moved, keys, keys/4)
	}

	// Removal: survivors keep every key they already owned.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("//x[y%d]\x00//x\x00", i)
		before := owner(four, key)
		after := owner(three, key)
		if before != "replica-3" && before != after {
			t.Fatalf("key %d moved %s -> %s on removal of replica-3", i, before, after)
		}
	}
}

// namedReplicas builds bare registry entries for policy tests.
func namedReplicas(names ...string) []*replica {
	reps := make([]*replica, len(names))
	for i, name := range names {
		reps[i] = &replica{name: name, nameHash: fnv64a(name)}
	}
	return reps
}

func TestBreakerStateMachine(t *testing.T) {
	rng := newRNG(42)
	var transitions []string
	b := newBreaker(3, 50*time.Millisecond, rng, func(from, to breakerState, _ time.Duration) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	now := time.Now()
	for i := 0; i < 2; i++ {
		b.Failure(now)
		if !b.Allow(now) {
			t.Fatal("breaker opened before threshold")
		}
	}
	b.Failure(now) // third consecutive failure: opens
	if b.Allow(now) {
		t.Fatal("open breaker admitted a request")
	}
	// Cooldown is jittered in [cooldown/2, cooldown); after the full
	// cooldown it must admit exactly one half-open probe.
	later := now.Add(50 * time.Millisecond)
	if !b.Allow(later) {
		t.Fatal("breaker did not go half-open after cooldown")
	}
	if b.Allow(later) {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.Failure(later) // failed probe: re-open
	if b.Allow(later) {
		t.Fatal("re-opened breaker admitted a request")
	}
	again := later.Add(50 * time.Millisecond)
	if !b.Allow(again) {
		t.Fatal("no second half-open probe")
	}
	b.Success(again) // probe succeeds: closed
	if !b.Allow(again) {
		t.Fatal("closed breaker refused a request")
	}
	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open", "half-open->closed"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

func TestPolicies(t *testing.T) {
	reps := []*replica{
		{name: "a", nameHash: fnv64a("a")},
		{name: "b", nameHash: fnv64a("b")},
		{name: "c", nameHash: fnv64a("c")},
	}
	rr := &roundRobin{}
	first := rr.order("k", reps)
	second := rr.order("k", reps)
	if first[0] == second[0] {
		t.Fatalf("round robin did not advance: %v then %v", first, second)
	}
	if len(first) != 3 {
		t.Fatal("order must rank every replica")
	}

	af := &affinity{}
	o1 := af.order("key-1", reps)
	o2 := af.order("key-1", reps)
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("affinity order not stable: %v vs %v", o1, o2)
	}
}

func TestAffinityKeyCanonicalizes(t *testing.T) {
	// Two spellings of the same canonical pattern must produce the same
	// routing key; a distinct pattern must not.
	k1 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[b][c]","view":"//a"}`))
	k2 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[c][b]","view":"//a"}`))
	k3 := affinityKey("/v1/rewrite", []byte(`{"query":"//a[d]","view":"//a"}`))
	if k1 != k2 {
		t.Fatalf("equivalent patterns keyed differently:\n%q\n%q", k1, k2)
	}
	if k1 == k3 {
		t.Fatal("distinct patterns share a key")
	}
	// Unparsable bodies still key consistently.
	if affinityKey("/v1/rewrite", []byte("junk")) != affinityKey("/v1/rewrite", []byte("junk")) {
		t.Fatal("raw-body fallback unstable")
	}
}

func TestNoLeaksAfterClose(t *testing.T) {
	defer leaktest.Check(t)()
	r, _, _, _ := testCluster(t, 3, nil)
	for i := 0; i < 3; i++ {
		doRewrite(t, r, rewriteBody)
	}
	r.Close()
	r.Close() // idempotent
}

package qav_test

// Heavier randomized cross-module checks, skipped under -short: they
// push the property tests of the internal packages to larger sizes and
// iteration counts, exercising the full pipeline end to end.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qav"
	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/leaktest"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/server"
	"qav/internal/stream"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// Larger-instance agreement of MCRGen with the brute-force baseline.
func TestSoakMCRMatchesNaiveLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(20260706))
	alphabet := []string{"a", "b", "c"}
	for i := 0; i < 400; i++ {
		q := workload.RandomPattern(rng, alphabet, 5)
		v := workload.RandomPattern(rng, alphabet, 5)
		res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 16})
		if err != nil {
			continue
		}
		naive, err := rewrite.NaiveMCR(context.Background(), q, v)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Union.SameAs(naive.Union) {
			t.Fatalf("q=%s v=%s\n mcr=%s\n naive=%s", q, v, res.Union, naive.Union)
		}
	}
}

// End-to-end pipeline: random schema → conforming instance → rewriting
// with schema → answers via view == subset of direct answers; plus
// every evaluation engine agrees.
func TestSoakEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		g := workload.RandomDAGSchema(rng, 4+rng.Intn(5), 0.4)
		sc := rewrite.NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 6)
		v := workload.RandomSchemaPattern(rng, g, 5)
		res, err := sc.MCRWithSchema(q, v)
		if err != nil {
			t.Fatalf("schema:\n%s\nq=%s v=%s: %v", g, q, v, err)
		}
		d, err := g.RandomInstance(rng, schema.InstanceSpec{MaxRepeat: 2})
		if err != nil {
			continue
		}

		// All three engines agree on both q and v.
		ix := qav.BuildIndex(d)
		xmlSrc := d.XMLString()
		for _, p := range []*tpq.Pattern{q, v} {
			mem := p.Evaluate(d)
			sj, err := ix.Evaluate(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if len(mem) != len(sj) {
				t.Fatalf("engines disagree on %s over schema instance", p)
			}
			sa, err := stream.Evaluate(context.Background(), strings.NewReader(xmlSrc), p)
			if err != nil || len(sa) != len(mem) {
				t.Fatalf("stream engine disagrees on %s: %d vs %d (%v)", p, len(sa), len(mem), err)
			}
		}

		if res.Union.Empty() {
			continue
		}
		inQ := make(map[*xmltree.Node]bool)
		for _, n := range q.Evaluate(d) {
			inQ[n] = true
		}
		viaView, err := rewrite.AnswerUsingView(context.Background(), res.CRs, v, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range viaView {
			if !inQ[n] {
				t.Fatalf("unsound view answer for q=%s v=%s schema:\n%s", q, v, g)
			}
		}
	}
}

// The facade functions compose: ship a view, serialize, read back,
// rewrite against its expression and answer on the forest — sound
// against direct evaluation by answer count.
func TestSoakShipMediateRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(99))
	alphabet := []string{"a", "b", "c"}
	for i := 0; i < 150; i++ {
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: alphabet, MaxDepth: 5, MaxFanout: 3, TargetSize: 30,
		})
		v := workload.RandomPattern(rng, alphabet, 4)
		q := workload.RandomPattern(rng, alphabet, 4)
		res, err := qav.Rewrite(q, v)
		if err != nil || res.Union.Empty() {
			continue
		}
		m := qav.ShipView(v, d)
		var buf strings.Builder
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := qav.ReadShippedView(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		forestAnswers, err := m2.Answer(context.Background(), res.CRs)
		if err != nil {
			t.Fatal(err)
		}
		sourceAnswers, err := rewrite.AnswerUsingView(context.Background(), res.CRs, v, d)
		if err != nil {
			t.Fatal(err)
		}
		// Shape-set comparison (copies vs originals): sizes can differ
		// only through overlapping view trees duplicating elements.
		if len(forestAnswers) < len(sourceAnswers) {
			t.Fatalf("forest lost answers: %d < %d (q=%s v=%s)", len(forestAnswers), len(sourceAnswers), q, v)
		}
	}
}

// Mixed load + fault soak: concurrent clients hammer the HTTP handler
// while a chaos goroutine re-arms random fault plans underneath them.
// Deterministic injections under nondeterministic interleaving — the
// assertions are the survival properties (JSON responses, clean
// shutdown, no leaked goroutines) plus post-storm health.
func TestSoakMixedLoadWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	defer leaktest.Check(t)()
	defer fault.Disable()

	eng := engine.New(engine.Config{
		CacheSize:     128,
		Timeout:       time.Second,
		MaxEmbeddings: 1 << 16,
	})
	h := server.NewWith(eng)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Chaos goroutine: a new deterministic plan every millisecond,
	// cycling action types across the full point registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		names := fault.Names()
		actions := []fault.Action{fault.ActError, fault.ActPanic, fault.ActDelay, fault.ActCancel}
		rng := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			plan := &fault.Plan{Seed: int64(i)}
			for k := 0; k < 1+rng.Intn(2); k++ {
				plan.Injections = append(plan.Injections, fault.Injection{
					Point:  names[rng.Intn(len(names))],
					Action: actions[(i+k)%len(actions)],
					Prob:   0.2,
					Delay:  time.Millisecond,
				})
			}
			if err := fault.Enable(plan); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Client goroutines: each its own deterministic request stream.
	clients := 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			alphabet := []string{"a", "b", "c"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := workload.RandomPattern(rng, alphabet, 4)
				v := workload.RandomPattern(rng, alphabet, 4)
				body, _ := json.Marshal(map[string]string{"query": q.String(), "view": v.String()})
				req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(string(body)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code == 0 {
					t.Error("no status written under fault load")
					return
				}
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("non-JSON response %d %q", rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}

	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	fault.Disable()

	// Post-storm health check on the same engine and handler.
	req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(
		`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-soak rewrite = %d: %s", rec.Code, rec.Body.String())
	}
}

package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"qav/internal/leaktest"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// referenceMCR is the pre-pipeline MCR path kept for differential
// testing: materialize every useful embedding with Enumerate, build and
// verify each CR serially, then assemble. The streaming pipeline must
// produce exactly this result.
func referenceMCR(q, v *tpq.Pattern, limit int) (*Result, error) {
	ctx := context.Background()
	labels := ComputeLabels(q, v, nil)
	if !labels.Exists() {
		return &Result{Union: &tpq.Union{}}, nil
	}
	embs, err := labels.Enumerate(ctx, limit)
	if err != nil {
		return nil, err
	}
	var crs []*ContainedRewriting
	for _, f := range embs {
		cr, err := BuildCR(f, v)
		if err != nil {
			return nil, err
		}
		if !cr.VerifyContained(q) {
			return nil, fmt.Errorf("reference: CR %s not contained in %s", cr.Rewriting.Canonical(), q.Canonical())
		}
		crs = append(crs, cr)
	}
	return assemble(ctx, crs, len(embs), tpq.Contained, "")
}

// disjunctSet returns the sorted canonical forms of the result's union.
func disjunctSet(res *Result) []string {
	var out []string
	for _, p := range res.Union.Patterns {
		out = append(out, p.Canonical())
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMCRMatchesReference checks the streaming parallel pipeline
// against the materialize-then-build reference on random instances:
// identical disjunct sets, identical embedding counts.
func TestMCRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := []string{"a", "b", "c"}
	checked := 0
	for trial := 0; trial < 600; trial++ {
		q := workload.RandomPattern(rng, alphabet, 7)
		v := workload.RandomPattern(rng, alphabet, 7)
		got, errGot := MCR(q, v, Options{})
		want, errWant := referenceMCR(q, v, DefaultMaxEmbeddings)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("MCR err=%v, reference err=%v for q=%s v=%s", errGot, errWant, q.Canonical(), v.Canonical())
		}
		if errGot != nil {
			continue
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("EmbeddingsConsidered %d, reference says %d for q=%s v=%s",
				got.EmbeddingsConsidered, want.EmbeddingsConsidered, q.Canonical(), v.Canonical())
		}
		if !sameStrings(disjunctSet(got), disjunctSet(want)) {
			t.Fatalf("union mismatch for q=%s v=%s:\n  pipeline:  %v\n  reference: %v",
				q.Canonical(), v.Canonical(), disjunctSet(got), disjunctSet(want))
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d instances checked, want >= 500", checked)
	}
}

// TestMCRMatchesReferenceExponential runs the differential check on the
// Figure 8 family, where the enumeration is large enough (2^n + extras)
// to engage the parallel arm of the pipeline.
func TestMCRMatchesReferenceExponential(t *testing.T) {
	v := workload.Fig8View()
	for n := 2; n <= 5; n++ {
		q := workload.Fig8Query(n)
		got, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMCR(q, v, DefaultMaxEmbeddings)
		if err != nil {
			t.Fatal(err)
		}
		if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
			t.Fatalf("n=%d: EmbeddingsConsidered %d, reference says %d", n, got.EmbeddingsConsidered, want.EmbeddingsConsidered)
		}
		if !sameStrings(disjunctSet(got), disjunctSet(want)) {
			t.Fatalf("n=%d: union mismatch", n)
		}
		// Determinism: the paper's 2^n disjuncts in a fixed order.
		again, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Union.Patterns {
			if got.Union.Patterns[i].Canonical() != again.Union.Patterns[i].Canonical() {
				t.Fatalf("n=%d: non-deterministic disjunct order at %d", n, i)
			}
		}
	}
}

// TestMCRAgreesWithNaive cross-checks the optimized pipeline against the
// brute-force baseline, which enumerates all partial matchings rather
// than useful embeddings.
func TestMCRAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphabet := []string{"a", "b"}
	for trial := 0; trial < 150; trial++ {
		q := workload.RandomPattern(rng, alphabet, 5)
		v := workload.RandomPattern(rng, alphabet, 5)
		fast, err := MCR(q, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveMCR(context.Background(), q, v)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Union.SameAs(naive.Union) {
			t.Fatalf("MCR and NaiveMCR disagree for q=%s v=%s:\n  mcrgen: %v\n  naive:  %v",
				q.Canonical(), v.Canonical(), disjunctSet(fast), disjunctSet(naive))
		}
	}
}

// TestMCRConcurrentSharedPatterns runs many MCR computations over the
// same shared query/view patterns from concurrent goroutines; under
// -race this verifies that the interval-label caches and the streaming
// pipeline never write to shared pattern state.
func TestMCRConcurrentSharedPatterns(t *testing.T) {
	v := workload.Fig8View()
	q := workload.Fig8Query(4)
	want, err := MCR(q, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := disjunctSet(want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				res, err := MCR(q, v, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameStrings(disjunctSet(res), wantSet) {
					t.Error("concurrent MCR produced a different union")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMCRStreamCancellation checks that cancelling the context aborts
// the streaming pipeline promptly with the context's error, and that
// the worker pool it may have started is fully torn down.
func TestMCRStreamCancellation(t *testing.T) {
	defer leaktest.Check(t)()

	// Cancelled upfront: the stream aborts before any worker starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := workload.Fig8Query(7)
	v := workload.Fig8View()
	if _, err := MCR(q, v, Options{Context: ctx}); err == nil {
		t.Fatal("cancelled MCR returned nil error")
	}

	// Cancelled mid-flight: the exponential Figure 8 instance at n=12
	// is large enough that the pipeline workers are running when the
	// cancel lands; they must all drain (the deferred leak check is
	// the assertion).
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := MCR(workload.Fig8Query(12), v, Options{Context: ctx, MaxEmbeddings: 1 << 22})
	cancel()
	if err == nil {
		t.Fatal("mid-flight cancelled MCR returned nil error")
	}
}

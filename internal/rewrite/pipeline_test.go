package rewrite

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/tpq"
	"qav/internal/workload"
)

// Enumerate collects every useful embedding from Stream into a slice.
// On error the embeddings enumerated so far are returned alongside it.
// The serial references below materialize the enumeration with it; the
// production pipeline streams instead.
func (l *Labeling) Enumerate(ctx context.Context, limit int) ([]*Embedding, error) {
	var out []*Embedding
	err := l.Stream(ctx, limit, func(e *Embedding) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// referenceMCRRecursive is the serial §5 reference: materialize every
// useful embedding into the chased view, build each CR against the
// original view, drop the unsatisfiable ones, require S-containment of
// the rest, then assemble under S-containment.
func referenceMCRRecursive(sc *SchemaContext, q, v *tpq.Pattern, limit int) (*Result, error) {
	ctx := context.Background()
	labels, ok := sc.schemaLabels(ctx, q, v)
	if !ok {
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
		if !sc.Schema.Satisfiable(cr.Rewriting) {
			continue
		}
		if !sc.SContained(cr.Rewriting, q) {
			return nil, fmt.Errorf("reference: CR %s not S-contained in %s", cr.Rewriting, q)
		}
		crs = append(crs, cr)
	}
	return assemble(ctx, crs, len(embs), sc.SContained, "")
}

// checkRecursiveAgainstReference runs MCRRecursive and the serial
// reference on one instance and requires identical outcomes; it
// reports whether the instance produced a result to compare.
func checkRecursiveAgainstReference(t *testing.T, sc *SchemaContext, q, v *tpq.Pattern) bool {
	t.Helper()
	const limit = 1 << 14
	got, errGot := sc.MCRRecursive(q, v, Options{MaxEmbeddings: limit})
	want, errWant := referenceMCRRecursive(sc, q, v, limit)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("MCRRecursive err=%v, reference err=%v for q=%s v=%s", errGot, errWant, q, v)
	}
	if errGot != nil {
		return false
	}
	if got.Partial {
		t.Fatalf("unexpected partial result for q=%s v=%s", q, v)
	}
	if got.EmbeddingsConsidered != want.EmbeddingsConsidered {
		t.Fatalf("EmbeddingsConsidered %d, reference says %d for q=%s v=%s",
			got.EmbeddingsConsidered, want.EmbeddingsConsidered, q, v)
	}
	if !sameStrings(disjunctSet(got), disjunctSet(want)) {
		t.Fatalf("union mismatch for q=%s v=%s:\n  pipeline:  %v\n  reference: %v",
			q, v, disjunctSet(got), disjunctSet(want))
	}
	return true
}

// TestMCRRecursiveMatchesReference pins the streamed schema pipeline to
// the serial reference on random recursion-free schemas, on a recursive
// schema, and on the Figure 15 family, whose exponential enumeration
// engages the pipeline's parallel arm.
func TestMCRRecursiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 5)
		v := workload.RandomSchemaPattern(rng, g, 4)
		if checkRecursiveAgainstReference(t, sc, q, v) {
			checked++
		}
	}
	recursive := workload.Fig15Schema(3)
	if !recursive.IsRecursive() {
		t.Fatal("Fig15Schema must be recursive")
	}
	sc := NewSchemaContext(recursive)
	for trial := 0; trial < 100; trial++ {
		q := workload.RandomSchemaPattern(rng, recursive, 6)
		v := workload.RandomSchemaPattern(rng, recursive, 4)
		if checkRecursiveAgainstReference(t, sc, q, v) {
			checked++
		}
	}
	wide := NewSchemaContext(workload.Fig15Schema(6))
	for k := 1; k <= 6; k++ {
		if !checkRecursiveAgainstReference(t, wide, workload.Fig15Query(k), tpq.MustParse("//a//b")) {
			t.Fatalf("Figure 15 query k=%d failed", k)
		}
	}
	if checked < 250 {
		t.Fatalf("only %d random instances checked, want >= 250", checked)
	}
}

// withFault arms one injection point for the duration of a test.
func withFault(t *testing.T, point string, action fault.Action) {
	t.Helper()
	if err := fault.Enable(&fault.Plan{Seed: 1, Injections: []fault.Injection{{Point: point, Action: action}}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// recovered runs f and converts a panic escaping it into an error, so
// a regression fails the test instead of the test binary.
func recovered(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic escaped to the caller: %v", v)
		}
	}()
	return f()
}

// TestMCRRecursiveReachesBuildCRFault: the schema pipeline builds its
// CRs through the shared buildVerify, so the rewrite.buildcr point
// fails it like it fails MCR.
func TestMCRRecursiveReachesBuildCRFault(t *testing.T) {
	sc := NewSchemaContext(workload.Fig15Schema(2))
	q, v := workload.Fig15Query(2), tpq.MustParse("//a//b")
	withFault(t, names.FaultRewriteBuildCR, fault.ActError)
	if _, err := sc.MCRRecursive(q, v, Options{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("MCRRecursive err = %v, want fault.ErrInjected", err)
	}
}

// TestMCRMultiViewWorkerPanicFails: a panic while processing one view
// fails the whole call with guard.ErrInternal, serially and in
// parallel, instead of silently dropping the view or escaping.
func TestMCRMultiViewWorkerPanicFails(t *testing.T) {
	q := tpq.MustParse("//a[b]/c")
	views := []ViewSource{
		{Name: "a", View: tpq.MustParse("//a")},
		{Name: "ab", View: tpq.MustParse("//a[b]")},
		{Name: "ac", View: tpq.MustParse("//a/c")},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			withFault(t, names.FaultRewriteWorker, fault.ActPanic)
			var res *MultiViewResult
			err := recovered(func() (err error) {
				res, err = MCRMultiView(q, views, Options{})
				return err
			})
			if !errors.Is(err, guard.ErrInternal) {
				if res != nil {
					t.Fatalf("err = %v with union %s (partial=%v), want guard.ErrInternal", err, res.Union, res.Partial)
				}
				t.Fatalf("err = %v, want guard.ErrInternal", err)
			}
		})
	}
}

// TestMCRMultiViewDeadlinePartial: a deadline degrades MCRMultiView
// into a sound deadline Partial — as it does MCR — whether it expired
// before any view ran or while views were enumerating.
func TestMCRMultiViewDeadlinePartial(t *testing.T) {
	check := func(t *testing.T, q *tpq.Pattern, views []ViewSource, ctx context.Context) {
		t.Helper()
		res, err := MCRMultiView(q, views, Options{Context: ctx})
		if err != nil {
			t.Fatalf("err = %v, want a deadline partial", err)
		}
		if !res.Partial || res.PartialReason != PartialDeadline {
			t.Fatalf("result = {Partial: %v, Reason: %q, Union: %s}, want a deadline partial", res.Partial, res.PartialReason, res.Union)
		}
		for _, p := range res.Union.Patterns {
			if !tpq.Contained(p, q) {
				t.Errorf("partial disjunct %s not contained in %s", p, q)
			}
		}
	}

	t.Run("expired", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		q := tpq.MustParse("//a[b]/c")
		v := tpq.MustParse("//a")
		check(t, q, []ViewSource{{Name: "a", View: v}, {Name: "ac", View: tpq.MustParse("//a/c")}}, ctx)
		single, err := MCR(q, v, Options{Context: ctx})
		if err != nil || !single.Partial || single.PartialReason != PartialDeadline {
			t.Fatalf("MCR on the same input: res=%+v err=%v, want a deadline partial", single, err)
		}
	})

	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		views := []ViewSource{{Name: "fig8", View: workload.Fig8View()}, {Name: "fig8b", View: workload.Fig8View()}}
		start := time.Now()
		check(t, workload.Fig8Query(16), views, ctx)
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("deadline honored only after %v", d)
		}
	})
}

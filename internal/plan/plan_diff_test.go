// Differential tests: compiled-plan answers must be identical — same
// nodes, same order — to the frozen naive evaluators in
// internal/rewrite/answer_ref.go, over random (query, view, document)
// instances, in both forest layouts (shared-document windows and
// shipped standalone trees). External test package: the
// references live in rewrite, which imports plan.
package plan_test

import (
	"context"
	"math/rand"
	"testing"

	"qav/internal/leaktest"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// sameNodes demands pointer-identical answers in identical order.
func sameNodes(got, want []*xmltree.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// diffInstance checks one (CRs, document) instance in both layouts
// against both references, under both the serial and parallel exec
// paths. Returns the number of comparisons made.
func diffInstance(t *testing.T, ctx context.Context, tag string, crs []*rewrite.ContainedRewriting, v *tpq.Pattern, d *xmltree.Document) int {
	t.Helper()
	comps := rewrite.Compensations(crs)
	pl, err := plan.Compile(ctx, comps)
	if err != nil {
		t.Fatalf("%s: compile: %v", tag, err)
	}
	checks := 0

	// Shared layout: windows of the source document.
	viewNodes := rewrite.MaterializeView(v, d)
	wantShared, err := rewrite.NaiveAnswerMaterialized(ctx, crs, d, viewNodes)
	if err != nil {
		t.Fatalf("%s: naive materialized: %v", tag, err)
	}
	fShared, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		t.Fatalf("%s: index subtrees: %v", tag, err)
	}
	for _, par := range []int{1, 4} {
		res, err := pl.Exec(ctx, fShared, plan.ExecOptions{Parallel: par})
		if err != nil {
			t.Fatalf("%s: exec par=%d: %v", tag, par, err)
		}
		if !sameNodes(res.Nodes(), wantShared) {
			t.Fatalf("%s: par=%d diverges on shared forest:\n got %v\nwant %v",
				tag, par, paths(res.Nodes()), paths(wantShared))
		}
		checks++
	}

	// Shipped layout: standalone cloned trees (the viewstore contract).
	m := viewstore.Materialize(v, d)
	wantForest, err := rewrite.NaiveAnswerForest(ctx, crs, m.Forest)
	if err != nil {
		t.Fatalf("%s: naive forest: %v", tag, err)
	}
	fShipped, err := plan.IndexForest(ctx, m.Forest)
	if err != nil {
		t.Fatalf("%s: index forest: %v", tag, err)
	}
	res, err := pl.Exec(ctx, fShipped, plan.ExecOptions{})
	if err != nil {
		t.Fatalf("%s: exec shipped: %v", tag, err)
	}
	if !sameNodes(res.Nodes(), wantForest) {
		t.Fatalf("%s: diverges on shipped forest:\n got %v\nwant %v",
			tag, paths(res.Nodes()), paths(wantForest))
	}
	checks++
	return checks
}

func paths(ns []*xmltree.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Path()
	}
	return out
}

// TestPlanDiffRandom is the main differential sweep: ≥500 random
// (query, view, document) instances, both layouts.
func TestPlanDiffRandom(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c"}
	const instances = 520
	answerable := 0
	for i := 0; i < instances; i++ {
		q := workload.RandomPattern(rng, alphabet, 6)
		v := workload.RandomPattern(rng, alphabet, 5)
		res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 14, Context: ctx})
		if err != nil {
			t.Fatalf("instance %d: MCR(%s, %s): %v", i, q, v, err)
		}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: alphabet, MaxDepth: 5, MaxFanout: 3, TargetSize: 30,
		})
		if len(res.CRs) > 0 {
			answerable++
		}
		// Unanswerable instances still diff: an empty plan must produce
		// an empty answer set everywhere.
		diffInstance(t, ctx, q.String()+" / "+v.String(), res.CRs, v, d)
	}
	if answerable < instances/10 {
		t.Fatalf("only %d/%d instances answerable: workload too weak to trust", answerable, instances)
	}
	t.Logf("%d instances (%d answerable)", instances, answerable)
}

// TestPlanDiffWildcards covers wildcard compensations, which exercise
// the forest's all-items candidate path in the structural joins. The
// MCR algorithms reject wildcard queries (outside XP{/,//,[]}), so
// these compensations are synthetic — the path still matters because
// Forest.Evaluate runs arbitrary tpq patterns through the same join
// core.
func TestPlanDiffWildcards(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", tpq.Wildcard}
	docTags := []string{"a", "b", "c"}
	for i := 0; i < 100; i++ {
		v := workload.RandomPattern(rng, docTags, 4) // views stay concrete
		crs := []*rewrite.ContainedRewriting{
			{Compensation: workload.RandomPattern(rng, alphabet, 5)},
			{Compensation: workload.RandomPattern(rng, alphabet, 4)},
		}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: docTags, MaxDepth: 4, MaxFanout: 3, TargetSize: 25,
		})
		diffInstance(t, ctx, "wildcard "+v.String(), crs, v, d)
	}
}

// TestPlanDiffFixtures pins the paper's running example end to end.
func TestPlanDiffFixtures(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	d, err := workload.ClinicalTrialsDoc(ctx, rng, 20, 6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, v string }{
		{"//Trials[//Status]//Trial/Patient", "//Trials//Trial"},
		{"//Trials//Trial", "//Trials//Trial"},
		{"//Trials//Trial[Status]", "//Trials//Trial"},
		{"//Trial/Patient", "//Trials"},
	} {
		q := tpq.MustParse(tc.q)
		v := tpq.MustParse(tc.v)
		res, err := rewrite.MCR(q, v, rewrite.Options{Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		diffInstance(t, ctx, tc.q+" / "+tc.v, res.CRs, v, d)
	}
}

// TestPlanExecCancelParallel: a cancelled context must abort the
// parallel exec path promptly and leak no goroutines.
func TestPlanExecCancelParallel(t *testing.T) {
	defer leaktest.Check(t)()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	d, err := workload.ClinicalTrialsDoc(ctx, rng, 50, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v := tpq.MustParse("//Trials")
	viewNodes := v.Evaluate(d)
	f, err := plan.IndexSubtrees(ctx, d, viewNodes)
	if err != nil {
		t.Fatal(err)
	}
	comps := []*tpq.Pattern{
		tpq.MustParse("/Trials//Trial/Patient"),
		tpq.MustParse("/Trials//Trial[Status]"),
		tpq.MustParse("/Trials//Patient"),
		tpq.MustParse("/Trials//Status"),
	}
	pl, err := plan.Compile(ctx, comps)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pl.Exec(cctx, f, plan.ExecOptions{Parallel: 4}); err != context.Canceled {
		t.Fatalf("parallel exec after cancel: err = %v", err)
	}
}

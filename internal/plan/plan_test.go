package plan

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"qav/internal/tpq"
	"qav/internal/xmltree"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompileEmptyPlan(t *testing.T) {
	ctx := context.Background()
	pl, err := Compile(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Programs() != 0 || pl.Key() != "" {
		t.Fatalf("empty plan: %d programs, key %q", pl.Programs(), pl.Key())
	}
	f, err := IndexDocument(ctx, mustDoc(t, "<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Exec(ctx, f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 0 || res.Nodes() != nil {
		t.Fatalf("empty plan produced answers: %v", res.Positions)
	}
}

func TestCompileDedupAndKey(t *testing.T) {
	ctx := context.Background()
	a := tpq.MustParse("/a//b")
	a2 := tpq.MustParse("/a//b")
	b := tpq.MustParse("/a/c")
	pl, err := Compile(ctx, []*tpq.Pattern{a, a2, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Programs() != 2 {
		t.Fatalf("programs = %d, want 2 (duplicates must collapse)", pl.Programs())
	}
	key, err := KeyOf([]*tpq.Pattern{b, a}) // reversed order
	if err != nil {
		t.Fatal(err)
	}
	if key != pl.Key() {
		t.Fatalf("KeyOf order-dependent: %q vs %q", key, pl.Key())
	}
}

func TestKeyIgnoresRootAxis(t *testing.T) {
	// Compensations are pinned at view nodes; EvaluateAt ignores the
	// root axis, so the plan key must too.
	k1, err := KeyOf([]*tpq.Pattern{tpq.MustParse("/a/b")})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOf([]*tpq.Pattern{tpq.MustParse("//a/b")})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("keys differ on root axis only: %q vs %q", k1, k2)
	}
}

func TestCompileRejectsNil(t *testing.T) {
	if _, err := Compile(context.Background(), []*tpq.Pattern{nil}); err == nil {
		t.Fatal("Compile accepted a nil compensation")
	}
	if _, err := KeyOf([]*tpq.Pattern{nil}); err == nil {
		t.Fatal("KeyOf accepted a nil compensation")
	}
}

func TestForestStats(t *testing.T) {
	ctx := context.Background()
	forest := []*xmltree.Document{
		mustDoc(t, "<a><b/><b/></a>"),
		mustDoc(t, "<a><c/></a>"),
	}
	f, err := IndexForest(ctx, forest)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() != 2 || f.Shared() {
		t.Fatalf("Trees=%d Shared=%v", f.Trees(), f.Shared())
	}
	if f.Size() != 5 || f.Cardinality("b") != 2 || f.Cardinality("a") != 2 {
		t.Fatalf("Size=%d card(b)=%d card(a)=%d", f.Size(), f.Cardinality("b"), f.Cardinality("a"))
	}
	// Positions run tree by tree in preorder: a b b | a c.
	if f.Path(2) != "/a/b" || f.Path(4) != "/a/c" || f.Node(4) != forest[1].Root.Children[0] {
		t.Fatalf("Path(2)=%q Path(4)=%q Node(4)=%v", f.Path(2), f.Path(4), f.Node(4))
	}
}

func TestIndexSubtreesNestedWindows(t *testing.T) {
	// A view like //a//a materializes nested windows; nodes must be
	// indexed once per window so every program sees per-window contents.
	ctx := context.Background()
	d := mustDoc(t, "<a><a><b/></a></a>")
	v := tpq.MustParse("//a")
	f, err := IndexSubtrees(ctx, d, v.Evaluate(d))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Shared() || f.Trees() != 2 {
		t.Fatalf("Shared=%v Trees=%d", f.Shared(), f.Trees())
	}
	if f.Size() != 5 { // outer window 3 nodes + inner window 2
		t.Fatalf("Size = %d, want 5", f.Size())
	}
	// The shared-window answer union must report the inner b once, in
	// global document order.
	pl, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a//b")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Exec(ctx, f, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nodes := res.Nodes(); len(nodes) != 1 || nodes[0].Tag != "b" {
		t.Fatalf("answers %v, want the single b", nodes)
	}
}

// The kernel's wildcard candidates (every tree root when pinned, the
// full position range otherwise) must agree with tpq's tree-DP.
func TestWildcardAllBackendsAgree(t *testing.T) {
	ctx := context.Background()
	d := mustDoc(t, "<a><b><c/></b><d><c/><e/></d></a>")
	f, err := IndexDocument(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"/a/*/c", "/*/d/*", "//*/c", "/*//*"} {
		p := tpq.MustParse(expr)
		pl, err := Compile(ctx, []*tpq.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Exec(ctx, f, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := p.EvaluateAt(d, d.Root)
		if expr == "/a/*/c" && len(want) != 2 {
			t.Fatalf("wildcard answers = %d, want 2", len(want))
		}
		got := res.Nodes()
		if len(got) != len(want) {
			t.Fatalf("%s: kernel found %d answers, tree-DP %d", expr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: kernel diverges from tree-DP at %d", expr, i)
			}
		}
		// The general entry point honors the pattern's own root axis.
		if got, err = f.Evaluate(ctx, p); err != nil {
			t.Fatal(err)
		}
		if want = p.Evaluate(d); !slices.Equal(got, want) {
			t.Fatalf("%s: Evaluate = %d answers, tree-DP %d", expr, len(got), len(want))
		}
	}
}

func TestExecHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f, err := IndexDocument(ctx, mustDoc(t, "<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a/b")})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := pl.Exec(ctx, f, ExecOptions{}); err != context.Canceled {
		t.Fatalf("Exec after cancel: err = %v", err)
	}
	if _, err := Compile(ctx, []*tpq.Pattern{tpq.MustParse("/a")}); err != context.Canceled {
		t.Fatalf("Compile after cancel: err = %v", err)
	}
	if _, err := IndexDocument(ctx, mustDoc(t, "<a/>")); err != context.Canceled {
		t.Fatalf("Index after cancel: err = %v", err)
	}
}

func TestEvaluateIndexedMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	d := mustDoc(t, "<a><b><c/></b><b/><c><b><c/></b></c></a>")
	f, err := IndexDocument(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"/a", "//b", "//b/c", "/a//c", "//c[b]", "//*[c]/c"} {
		p := tpq.MustParse(expr)
		got, err := f.Evaluate(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Evaluate(d)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, Evaluate found %d", expr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges at %d", expr, i)
			}
		}
	}
}

func TestKeySeparatorUnambiguous(t *testing.T) {
	// Canonical forms never contain NUL, so the joined key cannot
	// collide across different canon multisets.
	k, err := KeyOf([]*tpq.Pattern{tpq.MustParse("/a/b"), tpq.MustParse("/c")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k, "\x00") {
		t.Fatalf("expected NUL-joined key, got %q", k)
	}
}

// TestExecAllocsIndependentOfForest: the join kernel allocates per
// program and operator, never per tree or match. On shipped forests
// of 1k and 16k single-Trial trees a warm Exec makes the same number
// of allocations, and few of them.
func TestExecAllocsIndependentOfForest(t *testing.T) {
	ctx := context.Background()
	pl, err := Compile(ctx, []*tpq.Pattern{
		tpq.MustParse("/Trial[Status]/Patient"),
		tpq.MustParse("/Trial/Status"),
		tpq.MustParse("/Trial//Patient"),
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(trees int) (float64, int) {
		forest := make([]*xmltree.Document, trees)
		for i := range forest {
			trial := xmltree.Build("Trial", xmltree.Build("Patient"))
			if i%4 == 0 {
				trial = xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status"))
			}
			forest[i] = xmltree.NewDocument(trial)
		}
		f, err := IndexForest(ctx, forest)
		if err != nil {
			t.Fatal(err)
		}
		var answers int
		n := testing.AllocsPerRun(20, func() {
			res, err := pl.Exec(ctx, f, ExecOptions{Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			answers = len(res.Positions)
		})
		return n, answers
	}
	small, smallAnswers := allocs(1000)
	large, largeAnswers := allocs(16000)
	if smallAnswers != 1000+250 || largeAnswers != 16000+4000 {
		t.Fatalf("answers = %d and %d, want 1250 and 20000", smallAnswers, largeAnswers)
	}
	if small != large {
		t.Fatalf("Exec allocations grow with the forest: %v on 1k trees, %v on 16k", small, large)
	}
	if large > 8 {
		t.Fatalf("Exec makes %v allocations, want at most 8", large)
	}
	t.Logf("%v allocations per Exec", large)
}

// TestExecConcurrentKernelReuse runs many executions of different
// plans against one forest at once, so recycled kernels pass between
// goroutines and programs; every result must equal its serial answer.
func TestExecConcurrentKernelReuse(t *testing.T) {
	ctx := context.Background()
	d := mustDoc(t, "<r><a><b><c/></b><c/></a><a><b/></a><a><c><b/></c></a></r>")
	f, err := IndexSubtrees(ctx, d, tpq.MustParse("//a").Evaluate(d))
	if err != nil {
		t.Fatal(err)
	}
	var plans []*Plan
	var want [][]int32
	for _, exprs := range [][]string{{"/a/b"}, {"/a//c", "/a[b]/c"}, {"/a/*"}, {"/a[c]//b", "/a/b/c", "/a//*"}} {
		var comps []*tpq.Pattern
		for _, e := range exprs {
			comps = append(comps, tpq.MustParse(e))
		}
		pl, err := Compile(ctx, comps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Exec(ctx, f, ExecOptions{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
		want = append(want, res.Positions)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := (g + i) % len(plans)
				res, err := plans[j].Exec(ctx, f, ExecOptions{Parallel: 1 + i%3})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(res.Positions, want[j]) {
					t.Errorf("plan %d: positions %v, want %v", j, res.Positions, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

package plan

// Forest.Evaluate over a single-document index: the general (not
// root-pinned) entry point of the structural-join kernel, checked
// against tpq's tree-DP evaluator.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

func TestEvaluateBasics(t *testing.T) {
	d := xmltree.NewDocument(xmltree.Build("PharmaLab",
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status")),
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
		xmltree.Build("Trials",
			xmltree.Build("Trial", xmltree.Build("Patient")),
		),
	))
	ix := indexDoc(t, d)
	if ix.Cardinality("Trial") != 3 || ix.Cardinality("nope") != 0 {
		t.Fatalf("cardinalities wrong")
	}
	cases := []struct {
		expr string
		want int
	}{
		{"//Trials//Trial", 3},
		{"//Trials[//Status]//Trial", 2},
		{"//Trials//Trial[//Status]", 1},
		{"/PharmaLab", 1},
		{"/Trials", 0},
		{"//Trial/Patient", 3},
		{"//Trial[Status]/Patient", 1},
	}
	for _, tc := range cases {
		p := tpq.MustParse(tc.expr)
		got := evalIx(t, ix, p)
		if len(got) != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.expr, len(got), tc.want)
		}
		// Agreement with the DP engine, including node identity.
		want := p.Evaluate(d)
		if !sameNodes(got, want) {
			t.Errorf("%s: engines disagree", tc.expr)
		}
	}
}

// The kernel and the tree-DP must agree on arbitrary inputs.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []string{"a", "b", "c"}
		d := xmltree.Generate(rng, xmltree.GenSpec{
			Tags: alphabet, MaxDepth: 6, MaxFanout: 3, TargetSize: 40,
		})
		ix := indexDoc(t, d)
		for i := 0; i < 5; i++ {
			p := workload.RandomPattern(rng, alphabet, 6)
			if !sameNodes(evalIx(t, ix, p), p.Evaluate(d)) {
				t.Logf("disagree on %s over %s", p, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateDeepChains(t *testing.T) {
	// Same-tag chains exercise the interval logic: b/b/b/b.
	root := xmltree.Build("b")
	cur := root
	for i := 0; i < 10; i++ {
		cur = cur.AddChild("b")
	}
	d := xmltree.NewDocument(root)
	ix := indexDoc(t, d)
	for _, tc := range []struct {
		expr string
		want int
	}{
		{"//b", 11},
		{"//b//b", 10},
		{"//b//b//b//b//b//b//b//b//b//b//b", 1},
		{"//b/b", 10},
		{"//b[b]", 10},
	} {
		if got := len(evalIx(t, ix, tpq.MustParse(tc.expr))); got != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestEvaluateSiblingIntervals(t *testing.T) {
	// Two disjoint a-subtrees; descendants must not leak across.
	d := xmltree.NewDocument(xmltree.Build("r",
		xmltree.Build("a", xmltree.Build("x")),
		xmltree.Build("a", xmltree.Build("y")),
	))
	ix := indexDoc(t, d)
	if got := len(evalIx(t, ix, tpq.MustParse("//a[//x]//y"))); got != 0 {
		t.Errorf("//a[//x]//y leaked across sibling subtrees: %d answers", got)
	}
	if got := len(evalIx(t, ix, tpq.MustParse("//r[//x]//y"))); got != 1 {
		t.Errorf("//r[//x]//y = %d answers, want 1", got)
	}
}

// sameNodes compares answer sets, ignoring order.
func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[*xmltree.Node]bool, len(a))
	for _, n := range a {
		m[n] = true
	}
	for _, n := range b {
		if !m[n] {
			return false
		}
	}
	return true
}

// indexDoc indexes one document as a single-tree forest.
func indexDoc(tb testing.TB, d *xmltree.Document) *Forest {
	tb.Helper()
	f, err := IndexDocument(context.Background(), d)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// evalIx runs the indexed evaluator with a background context, failing
// the test on error.
func evalIx(tb testing.TB, ix *Forest, p *tpq.Pattern) []*xmltree.Node {
	tb.Helper()
	out, err := ix.Evaluate(context.Background(), p)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

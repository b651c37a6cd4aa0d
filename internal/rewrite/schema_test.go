package rewrite

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// Figure 2 / Example 2: with the auction schema, the MCR of
// Q = //Auction[//item]//name using V = //Auction//person is the single
// CR //Auction//person//name, licensed by the cousin constraint
// Auction : person ⇓ item.
func TestFigure2MCRGenSchema(t *testing.T) {
	sc := NewSchemaContext(workload.AuctionSchema())
	q := tpq.MustParse("//Auction[//item]//name")
	v := tpq.MustParse("//Auction//person")
	if !sc.AnswerableWithSchema(q, v) {
		t.Fatal("Q must be answerable using V under the auction schema")
	}
	res, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union.Patterns) != 1 {
		t.Fatalf("schema MCR must be a single TPQ, got %d: %s", len(res.Union.Patterns), res.Union)
	}
	got := res.Union.Patterns[0]
	want := tpq.MustParse("//Auction//person//name")
	if !sc.SEquivalent(got, want) {
		t.Errorf("MCR = %s, want ≡_S %s", got, want)
	}
	// The MCR is S-contained in Q but NOT equivalent to it: Q also
	// finds item names, which the view cannot deliver.
	if !sc.SContained(got, q) {
		t.Error("MCR not S-contained in Q")
	}
	if sc.SContained(q, got) {
		t.Error("MCR should be strictly weaker than Q")
	}
	// Without the schema, Q is NOT answerable into this shape: the
	// schemaless MCR cannot verify the [//item] predicate above person,
	// so the best schemaless CR must carry item inside the view trees.
	plain := mustMCR(t, q, v)
	for _, p := range plain.Union.Patterns {
		if tpq.Equivalent(p, want) {
			t.Error("schemaless MCR should not contain //Auction//person//name")
		}
	}
}

// The Figure 2 MCR must be sound and effective on real instances:
// answers through the view are query answers, and on instances where
// every Auction with a person also has an item (always true by the
// schema) the person-subtree names are all returned.
func TestFigure2OnInstances(t *testing.T) {
	g := workload.AuctionSchema()
	sc := NewSchemaContext(g)
	q := tpq.MustParse("//Auction[//item]//name")
	v := tpq.MustParse("//Auction//person")
	res, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	sawAnswer := false
	for i := 0; i < 60; i++ {
		d, err := g.RandomInstance(rng, schema.InstanceSpec{MaxRepeat: 3, OptProb: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		inQ := make(map[*xmltree.Node]bool)
		for _, n := range q.Evaluate(d) {
			inQ[n] = true
		}
		got, err := AnswerUsingView(context.Background(), res.CRs, v, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range got {
			if !inQ[n] {
				t.Fatalf("unsound answer %s on instance\n%s", n.Path(), d.XMLString())
			}
		}
		if len(got) > 0 {
			sawAnswer = true
		}
		// Maximality on instances: every name under a person under an
		// Auction must be found.
		for _, n := range res.Union.Patterns[0].Evaluate(d) {
			if !inQ[n] {
				t.Fatalf("rewriting answer %s not a query answer", n.Path())
			}
		}
	}
	if !sawAnswer {
		t.Error("no instance produced answers; test is vacuous")
	}
}

// Figure 14 / Example 3: the view's two bids nodes are chased
// uniformly; every query node embeds into the chased view, the CAT is
// trivial, and the MCR is the identity compensation over the original
// view.
func TestFigure14IdentityCompensation(t *testing.T) {
	g := schema.MustParse(`
root Auctions
Auctions -> Auction*
Auction -> open_auction* closed_auction?
open_auction -> bids?
closed_auction -> bids?
bids -> person+ item+
item -> name+
person ->
`)
	sc := NewSchemaContext(g)
	// V = //Auction[open_auction/bids]/closed_auction/bids with the
	// closed_auction bids distinguished.
	v := tpq.New(tpq.Descendant, "Auction")
	oa := v.Root.AddChild(tpq.Child, "open_auction")
	oa.AddChild(tpq.Child, "bids")
	ca := v.Root.AddChild(tpq.Child, "closed_auction")
	vOut := ca.AddChild(tpq.Child, "bids")
	v.Output = vOut
	// Q = //Auction[//bids/person]//bids[item/name] with the second
	// bids distinguished.
	q := tpq.New(tpq.Descendant, "Auction")
	b1 := q.Root.AddChild(tpq.Descendant, "bids")
	b1.AddChild(tpq.Child, "person")
	b2 := q.Root.AddChild(tpq.Descendant, "bids")
	item := b2.AddChild(tpq.Child, "item")
	item.AddChild(tpq.Child, "name")
	q.Output = b2

	res, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union.Patterns) != 1 {
		t.Fatalf("MCR = %s, want single CR", res.Union)
	}
	r := res.Union.Patterns[0]
	// The rewriting is the view itself: identity compensation.
	if !r.StructuralEqual(v) {
		t.Errorf("MCR = %s, want the view %s (identity compensation)", r, v)
	}
	if res.CRs[0].Compensation.Size() != 1 {
		t.Errorf("compensation has %d nodes, want 1 (identity)", res.CRs[0].Compensation.Size())
	}
	// The single embedding embeds away ALL query nodes (Example 3).
	if len(res.CRs[0].Embedding.M) != q.Size() {
		t.Errorf("embedding maps %d of %d query nodes", len(res.CRs[0].Embedding.M), q.Size())
	}
}

// Figure 15: under a recursive schema the MCR may again be a union; the
// Figure 9 query/view pair against a recursive schema admitting nested
// b's yields the same four CRs as the schemaless case.
func TestFigure15Recursive(t *testing.T) {
	g := schema.MustParse(`
root a
a -> b*
b -> b* c? d?
c ->
d ->
`)
	sc := NewSchemaContext(g)
	if !g.IsRecursive() {
		t.Fatal("schema should be recursive")
	}
	q := workload.Fig9Query()
	v := workload.Fig9View()
	res, err := sc.MCRRecursive(q, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union.Patterns) != 4 {
		t.Fatalf("recursive-schema MCR has %d CRs, want 4:\n%s", len(res.Union.Patterns), res.Union)
	}
	plain := mustMCR(t, q, v)
	if !res.Union.SameAs(plain.Union) {
		t.Errorf("recursive MCR %s differs from schemaless MCR %s", res.Union, plain.Union)
	}
}

// Under a recursive schema that forbids some CR shapes, unsatisfiable
// CRs must be pruned.
func TestRecursivePrunesUnsatisfiable(t *testing.T) {
	// No d anywhere in the schema: the d-branch can never match.
	g := schema.MustParse(`
root a
a -> b*
b -> b* c?
c ->
`)
	sc := NewSchemaContext(g)
	q := workload.Fig9Query() // requires a b with a d child
	v := workload.Fig9View()
	res, err := sc.MCRRecursive(q, v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Union.Empty() {
		t.Errorf("query mentions d which the schema forbids; MCR must be empty, got %s", res.Union)
	}
}

// Unsatisfiable pc-grafts must be rejected by the Definition 2 cut
// check: with V = //a//b (dV = b) and Q = //a/z* where z exists only as
// a child of a, z cannot hang below b.
func TestSchemaCutCheck(t *testing.T) {
	g := schema.MustParse(`
root a
a -> b* z?
b -> b*
z ->
`)
	sc := NewSchemaContext(g)
	q := tpq.MustParse("//a//z")
	v := tpq.MustParse("//a//b")
	// z is not reachable from b, so the clip-away graft is impossible
	// and no rewriting exists.
	if sc.AnswerableWithSchema(q, v) {
		res, _ := sc.MCRRecursive(q, v, Options{})
		t.Errorf("z cannot occur below b; expected unanswerable, got %s", res.Union)
	}
	// Make z reachable below b and it becomes answerable.
	g2 := schema.MustParse(`
root a
a -> b* z?
b -> b* z?
z ->
`)
	sc2 := NewSchemaContext(g2)
	if !sc2.AnswerableWithSchema(q, v) {
		t.Error("z below b is allowed; expected answerable")
	}
}

// Theorem 8/9: for recursion-free schemas the efficient single-CR
// algorithm agrees with full enumeration: the union of all enumerated,
// satisfiable CRs collapses (under S-containment) to the single CR.
func TestQuickSchemaSingleCRMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 4)
		v := workload.RandomSchemaPattern(rng, g, 4)
		single, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
		if err != nil {
			t.Logf("seed %d: %v (q=%s v=%s schema=\n%s)", seed, err, q, v, g)
			return false
		}
		all, err := sc.MCRRecursive(q, v, Options{MaxEmbeddings: 1 << 14})
		if err != nil {
			return true // enumeration blow-up: skip
		}
		if single.Union.Empty() != all.Union.Empty() {
			t.Logf("existence mismatch: single=%s all=%s (q=%s v=%s)", single.Union, all.Union, q, v)
			return false
		}
		if single.Union.Empty() {
			return true
		}
		r := single.Union.Patterns[0]
		// Every enumerated CR must be S-contained in the single CR.
		for _, p := range all.Union.Patterns {
			if !sc.SContained(p, r) {
				t.Logf("CR %s not S-contained in single CR %s (q=%s v=%s, schema:\n%s)", p, r, q, v, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Soundness of the schema MCR on generated instances.
func TestQuickSchemaMCRSoundOnInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		q := workload.RandomSchemaPattern(rng, g, 4)
		v := workload.RandomSchemaPattern(rng, g, 4)
		res, err := sc.MCRWithSchemaCtx(context.Background(), q, v)
		if err != nil || res.Union.Empty() {
			return true
		}
		for i := 0; i < 4; i++ {
			d, err := g.RandomInstance(rng, schema.InstanceSpec{MaxRepeat: 2})
			if err != nil {
				return true
			}
			inQ := make(map[*xmltree.Node]bool)
			for _, n := range q.Evaluate(d) {
				inQ[n] = true
			}
			for _, n := range res.Union.Evaluate(d) {
				if !inQ[n] {
					t.Logf("unsound: schema\n%s\nq=%s v=%s r=%s", g, q, v, res.Union)
					return false
				}
			}
			// And via the view, identically.
			via, err := AnswerUsingView(context.Background(), res.CRs, v, d)
			if err != nil {
				t.Logf("view answering failed: %v", err)
				return false
			}
			if !sameNodeSet(via, res.Union.Evaluate(d)) {
				t.Logf("view answering mismatch: q=%s v=%s r=%s", q, v, res.Union)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// SContained soundness: if p ⊆_S q then on conforming instances p's
// answers are a subset of q's.
func TestQuickSContainedSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.RandomDAGSchema(rng, 3+rng.Intn(5), 0.45)
		sc := NewSchemaContext(g)
		p := workload.RandomSchemaPattern(rng, g, 4)
		q := workload.RandomSchemaPattern(rng, g, 4)
		if !sc.SContained(p, q) {
			return true
		}
		for i := 0; i < 4; i++ {
			d, err := g.RandomInstance(rng, schema.InstanceSpec{MaxRepeat: 2})
			if err != nil {
				return true
			}
			inQ := make(map[*xmltree.Node]bool)
			for _, n := range q.Evaluate(d) {
				inQ[n] = true
			}
			for _, n := range p.Evaluate(d) {
				if !inQ[n] {
					t.Logf("SContained unsound: schema\n%s\np=%s q=%s", g, p, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Schema-relative containment is strictly more powerful than plain
// containment (Fig 2's rewriting is the canonical witness).
func TestSContainedStrongerThanPlain(t *testing.T) {
	sc := NewSchemaContext(workload.AuctionSchema())
	r := tpq.MustParse("//Auction//person//name")
	q := tpq.MustParse("//Auction[//item]//name")
	if tpq.Contained(r, q) {
		t.Fatal("plain containment should fail (no item witness)")
	}
	if !sc.SContained(r, q) {
		t.Fatal("S-containment should hold via Auction:person⇓item")
	}
}

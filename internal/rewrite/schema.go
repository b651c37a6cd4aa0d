package rewrite

import (
	"context"
	"fmt"

	"qav/internal/chase"
	"qav/internal/constraints"
	"qav/internal/obs"
	"qav/internal/schema"
	"qav/internal/tpq"
)

// SchemaContext bundles a schema with its inferred constraint set. Use
// NewSchemaContext once and reuse it across rewritings: inference is
// O(|S|³) (Theorem 5) and independent of queries.
type SchemaContext struct {
	Schema *schema.Graph
	Sigma  *constraints.Set
}

// NewSchemaContext infers all SC, FC, CC, PC and IC constraints implied
// by the schema.
func NewSchemaContext(g *schema.Graph) *SchemaContext {
	return &SchemaContext{Schema: g, Sigma: constraints.Infer(g)}
}

// SContained decides schema-relative containment p ⊆_S q using the
// chase (Theorem 6): p ⊆_S q iff Chase_Σ(p) ⊆ q, with the chase
// conducted intelligently against q's tags (Lemma 4 guarantees this
// introduces every tag that matters for the homomorphism test).
func (sc *SchemaContext) SContained(p, q *tpq.Pattern) bool {
	chased := chase.Intelligent(p, q, sc.Sigma)
	return tpq.Contained(chased, q)
}

// SEquivalent reports p ≡_S q.
func (sc *SchemaContext) SEquivalent(p, q *tpq.Pattern) bool {
	return sc.SContained(p, q) && sc.SContained(q, p)
}

// graftCut returns the Definition 2 cut check for a view output tag:
// the clipped subtree must be realizable below dV in instances of the
// schema — the graft edge and every edge inside the subtree must be
// supported by the schema graph.
func (sc *SchemaContext) graftCut(dVTag string) CutCheck {
	g := sc.Schema
	var subtreeOK func(n *tpq.Node) bool
	subtreeOK = func(n *tpq.Node) bool {
		for _, c := range n.Children {
			switch c.Axis {
			case tpq.Child:
				if _, ok := g.EdgeBetween(n.Tag, c.Tag); !ok {
					return false
				}
			case tpq.Descendant:
				if !g.Reachable(n.Tag, c.Tag) {
					return false
				}
			}
			if !subtreeOK(c) {
				return false
			}
		}
		return true
	}
	return func(y *tpq.Node) bool {
		switch y.Axis {
		case tpq.Child:
			if _, ok := g.EdgeBetween(dVTag, y.Tag); !ok {
				return false
			}
		case tpq.Descendant:
			if !g.Reachable(dVTag, y.Tag) {
				return false
			}
		}
		return subtreeOK(y)
	}
}

// AnswerableWithSchema reports whether q is answerable using v in the
// presence of the schema (Theorem 7): a useful embedding into the
// intelligently chased view exists whose induced rewriting is
// satisfiable w.r.t. the schema. Runs in polynomial time (Theorem 9).
func (sc *SchemaContext) AnswerableWithSchema(q, v *tpq.Pattern) bool {
	cr, err := sc.mcrSingle(context.Background(), q, v)
	return err == nil && cr != nil
}

// MCRWithSchemaCtx computes the maximal contained rewriting of q using
// v under a schema without recursion or union types (Algorithm
// MCRGenSchema, Fig 13). By Theorems 8 and 9 the MCR, when it exists,
// is a single tree pattern; the result union carries zero or one CR.
// For recursive schemas use MCRRecursive. The pipeline is polynomial,
// so ctx is not polled for cancellation; it carries the stage span
// (obs.WithSpan).
func (sc *SchemaContext) MCRWithSchemaCtx(ctx context.Context, q, v *tpq.Pattern) (*Result, error) {
	if sc.Schema.IsRecursive() {
		return nil, fmt.Errorf("rewrite: schema is recursive; use MCRRecursive")
	}
	cr, err := sc.mcrSingle(ctx, q, v)
	if err != nil {
		return nil, err
	}
	if cr == nil {
		return &Result{Union: &tpq.Union{}}, nil
	}
	return &Result{
		Union:                tpq.NewUnion(cr.Rewriting),
		CRs:                  []*ContainedRewriting{cr},
		EmbeddingsConsidered: 1,
	}, nil
}

// sContainedIn is the schema check of Theorem 7: a CR that does not
// totally embed into the schema graph is dropped, and every other CR
// must be S-contained in q.
func (sc *SchemaContext) sContainedIn(q *tpq.Pattern) crCheck {
	return func(cr *ContainedRewriting) (bool, error) {
		if !sc.Schema.Satisfiable(cr.Rewriting) {
			return false, nil
		}
		if !sc.SContained(cr.Rewriting, q) {
			return false, fmt.Errorf("rewrite: internal error: CR %s not S-contained in %s", cr.Rewriting, q)
		}
		return true, nil
	}
}

// schemaLabels chases the view against q and labels q over the chased
// view under the Definition 2 cut check. It reports false when the view
// or the query can never produce answers on legal instances, which
// admits no rewriting with a non-empty instance.
func (sc *SchemaContext) schemaLabels(ctx context.Context, q, v *tpq.Pattern) (*Labeling, bool) {
	if !sc.Schema.Satisfiable(v) || !sc.Schema.Satisfiable(q) {
		return nil, false
	}
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	vPrime := chase.Intelligent(v, q, sc.Sigma)
	sp.Observe(obs.StageChase, t)
	t = sp.Start()
	labels := ComputeLabels(q, vPrime, sc.graftCut(vPrime.Output.Tag))
	sp.Observe(obs.StageEnumerate, t)
	return labels, true
}

// mcrSingle runs the efficient single-embedding pipeline shared by the
// existence test and MCR generation: label q over the chased view,
// extract one maximal useful embedding greedily, and build and check
// its CR against the ORIGINAL view (the compensation runs on real
// materialized data; schema-guaranteed nodes need not be re-checked,
// per Example 3). Returns (nil, nil) when no MCR exists.
func (sc *SchemaContext) mcrSingle(ctx context.Context, q, v *tpq.Pattern) (*ContainedRewriting, error) {
	if q.HasWildcard() || v.HasWildcard() {
		return nil, errWildcard
	}
	labels, ok := sc.schemaLabels(ctx, q, v)
	if !ok {
		return nil, nil
	}
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	f := labels.greedyMaximal()
	sp.Observe(obs.StageEnumerate, t)
	if f == nil {
		return nil, nil
	}
	return buildVerify(ctx, f, v, sc.sContainedIn(q))
}

// greedyMaximal extracts one useful embedding that maps a node whenever
// the labeling allows it, cutting only when forced. By Theorem 8 every
// admissible embedding clips the same node set, so any maximal one
// induces the (unique) schema-case CR.
func (l *Labeling) greedyMaximal() *Embedding {
	m := make(map[*tpq.Node]*tpq.Node)
	var assign func(x *tpq.Node) bool
	assign = func(x *tpq.Node) bool {
		img := m[x]
		j := l.vpos(img)
		for _, y := range x.Children {
			yi := l.qpos(y)
			mapped := false
			for _, cand := range l.candidates(y, j) {
				if l.okAt(yi, l.vpos(cand)) {
					m[y] = cand
					if assign(y) {
						mapped = true
						break
					}
					delete(m, y)
				}
			}
			if mapped {
				continue
			}
			if !l.cutAllowed(y, img, j) {
				return false
			}
		}
		return true
	}
	for _, rootImg := range l.RootImages() {
		m[l.Q.Root] = rootImg
		if assign(l.Q.Root) {
			return &Embedding{Q: l.Q, V: l.V, M: m}
		}
		m = make(map[*tpq.Node]*tpq.Node)
	}
	if l.emptyAllowed() {
		return &Embedding{Q: l.Q, V: l.V, M: nil}
	}
	return nil
}

// MCRRecursive computes the maximal contained rewriting under a
// possibly recursive schema (§5): unlike the recursion-free case the
// MCR may be a union of exponentially many CRs, so all useful
// embeddings into the chased view are streamed through the shared
// pipeline (bounded by opts.MaxEmbeddings), their CRs filtered by
// schema satisfiability and schema-relative redundancy.
func (sc *SchemaContext) MCRRecursive(q, v *tpq.Pattern, opts Options) (*Result, error) {
	if q.HasWildcard() || v.HasWildcard() {
		return nil, errWildcard
	}
	ctx := opts.ctx()
	labels, ok := sc.schemaLabels(ctx, q, v)
	if !ok {
		return &Result{Union: &tpq.Union{}}, nil
	}
	return mcrPipeline(ctx, labels, v, sc.sContainedIn(q), sc.SContained, opts.limit())
}

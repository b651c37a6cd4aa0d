package rewrite

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"qav/internal/fault"
	"qav/internal/names"
	"qav/internal/tpq"
)

// ErrEmbeddingBudget is the errors.Is target for enumeration-budget
// overruns: more useful embeddings exist than the caller's
// MaxEmbeddings bound allows. MCR generation treats it as a signal to
// degrade gracefully (return the sound union found so far, marked
// Partial) rather than as a hard failure.
var ErrEmbeddingBudget = errors.New("rewrite: embedding budget exhausted")

// faultEnumerate fires once per produced embedding, inside the
// enumeration recursion.
var faultEnumerate = fault.Register(names.FaultRewriteEnumerate)

// CutCheck is an extra admissibility condition for leaving the subtree
// rooted at y unmapped (y is "clipped away" and grafted below the view
// output). The schemaless case allows every cut; the schema case
// (Definition 2) requires the grafted subtree to be realizable below
// the view output's tag.
type CutCheck func(y *tpq.Node) bool

// Labeling is the result of the label-entry computation of Algorithm
// UseEmb (Fig 6): for every query node the set of admissible view
// images, taking into account the distinguished-path discipline and the
// cut conditions. It is a compact encoding of all useful embeddings.
//
// Internally everything is addressed by preorder position (the
// patterns' interval labels, see tpq's index), so the hot loops perform
// no map lookups and no per-call allocations.
type Labeling struct {
	Q, V *tpq.Pattern

	qn, vn []*tpq.Node

	// ok is the flattened label matrix: ok[i*len(vn)+j] reports that
	// query node qn[i] can map to view node vn[j] such that the whole
	// query subtree below qn[i] is handled (mapped or admissibly cut).
	ok []bool

	pv      []bool        // view position lies on the view's distinguished path
	onPQ    []bool        // query position lies on the query's distinguished path
	vDesc   [][]*tpq.Node // per view position: proper descendants (shared views)
	vKidsC  [][]*tpq.Node // per view position: children reached by a pc-edge
	cut     CutCheck
	canCutQ []bool // cached cut admissibility per query position
}

// qpos and vpos are the O(1) preorder positions of query and view nodes.
func (l *Labeling) qpos(n *tpq.Node) int { return l.Q.Preorder(n) }
func (l *Labeling) vpos(n *tpq.Node) int { return l.V.Preorder(n) }

func (l *Labeling) okAt(i, j int) bool { return l.ok[i*len(l.vn)+j] }

// ComputeLabels runs the polynomial labeling pass of Algorithm UseEmb:
// O(|Q|·|V|²) as stated by Theorem 2. cut may be nil (always allowed).
func ComputeLabels(q, v *tpq.Pattern, cut CutCheck) *Labeling {
	return NewQuerySide(q, cut).LabelsFor(v)
}

// QuerySide is the query half of the labeling pass: the preorder node
// list, distinguished-path membership and cut admissibility of every
// query node. It depends only on the query (and the cut check), so the
// batched multi-view pipeline computes it once and reuses it across
// every candidate view instead of rebuilding it |catalog| times inside
// ComputeLabels.
type QuerySide struct {
	Q       *tpq.Pattern
	qn      []*tpq.Node
	onPQ    []bool
	canCutQ []bool
	cut     CutCheck
}

// NewQuerySide precomputes the query-side labeling metadata.
func NewQuerySide(q *tpq.Pattern, cut CutCheck) *QuerySide {
	qs := &QuerySide{Q: q, qn: q.PreorderNodes(), cut: cut}
	nq := len(qs.qn)
	buf := make([]bool, 2*nq)
	qs.onPQ, qs.canCutQ = buf[:nq], buf[nq:]
	for i, n := range qs.qn {
		qs.onPQ[i] = q.OnDistinguishedPath(n)
		qs.canCutQ[i] = cut == nil || cut(n)
	}
	return qs
}

// EmptyAllowed reports whether the empty (trivial) useful embedding is
// admissible for this query regardless of the view: the query root is
// '//' and the whole-query graft passes the cut check. When it holds,
// EVERY view contributes at least the trivial CR (the whole query
// grafted below the view output), which the batch pipeline synthesizes
// directly for views the candidate filter rejects.
func (qs *QuerySide) EmptyAllowed() bool {
	return qs.Q.Root.Axis == tpq.Descendant && qs.canCutQ[0]
}

// NonemptyPossible is the O(1) necessary condition for a NONEMPTY
// useful embedding of the query into v — the brute-force root-image
// conditions of the labeling pass (feasible's root rule):
//
//   - a '/t'-rooted query can only map its root to a '/t'-rooted view's
//     root;
//   - a '//t'-rooted query can map its root to any view node tagged t.
//
// It over-approximates: a view passing the test may still admit no
// useful embedding (the full labeling decides), but a view failing it
// admits none, so the signature-index candidate filter and the batch
// pipeline may skip the O(|Q|·|V|²) labeling for it entirely.
func (qs *QuerySide) NonemptyPossible(v *tpq.Pattern) bool {
	root := qs.Q.Root
	if root.Axis == tpq.Child {
		return v.Root.Axis == tpq.Child && v.Root.Tag == root.Tag
	}
	return v.HasTag(root.Tag)
}

// LabelsFor runs the view-side labeling against v, reusing the
// precomputed query-side metadata.
func (qs *QuerySide) LabelsFor(v *tpq.Pattern) *Labeling {
	l := &Labeling{
		Q: qs.Q, V: v,
		qn: qs.qn, vn: v.PreorderNodes(),
		cut: qs.cut, onPQ: qs.onPQ, canCutQ: qs.canCutQ,
	}
	nq, nv := len(l.qn), len(l.vn)
	// All per-view boolean state shares one backing allocation.
	buf := make([]bool, nq*nv+nv)
	l.ok, l.pv = buf[:nq*nv], buf[nq*nv:]
	for j, n := range l.vn {
		l.pv[j] = v.OnDistinguishedPath(n)
	}
	l.vDesc = make([][]*tpq.Node, nv)
	l.vKidsC = make([][]*tpq.Node, nv)
	kidsBuf := make([]*tpq.Node, 0, nv) // one backing array for all pc-child lists
	for j, n := range l.vn {
		l.vDesc[j] = v.Descendants(n)
		start := len(kidsBuf)
		for _, c := range n.Children {
			if c.Axis == tpq.Child {
				kidsBuf = append(kidsBuf, c)
			}
		}
		l.vKidsC[j] = kidsBuf[start:len(kidsBuf):len(kidsBuf)]
	}

	// Post-order: children of qn[i] have larger preorder indexes, so
	// iterate in reverse preorder.
	for i := nq - 1; i >= 0; i-- {
		x := l.qn[i]
		row := l.ok[i*nv:]
		for j, img := range l.vn {
			row[j] = l.feasible(x, img, j)
		}
	}
	return l
}

// feasible decides ok[x][img]: tags match, path discipline holds, and
// every child is either mappable consistently or admissibly cut.
func (l *Labeling) feasible(x *tpq.Node, img *tpq.Node, j int) bool {
	if x.Tag != img.Tag {
		return false
	}
	if x == l.Q.Output {
		if img != l.V.Output {
			return false
		}
	} else if l.onPQ[l.qpos(x)] && !l.pv[j] {
		return false
	}
	if x.Parent == nil && x.Axis == tpq.Child {
		// '/t' query root must be the view root, itself rooted '/t'.
		if img != l.V.Root || l.V.Root.Axis != tpq.Child {
			return false
		}
	}
	for _, y := range x.Children {
		if l.cutAllowed(y, img, j) {
			continue
		}
		yi := l.qpos(y)
		found := false
		for _, cand := range l.candidates(y, j) {
			if l.okAt(yi, l.vpos(cand)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// candidates lists the view nodes y may map to when its parent maps to
// the view node at position j. The returned slice is a shared
// precomputed view — never modified, never reallocated per call.
func (l *Labeling) candidates(y *tpq.Node, j int) []*tpq.Node {
	if y.Axis == tpq.Child {
		return l.vKidsC[j]
	}
	return l.vDesc[j]
}

// cutAllowed reports whether the subtree at y may be left unmapped when
// y's parent maps to img (at view position j): ad-edges cut below
// distinguished-path nodes, pc-edges only below the view output itself
// (Def 1 (ii)(b)), plus the caller's CutCheck.
func (l *Labeling) cutAllowed(y *tpq.Node, img *tpq.Node, j int) bool {
	if !l.canCutQ[l.qpos(y)] {
		return false
	}
	if y.Axis == tpq.Child {
		return img == l.V.Output
	}
	return l.pv[j]
}

// emptyAllowed reports whether the empty embedding is useful: the query
// root is '//' and the whole-query graft passes the cut check.
func (l *Labeling) emptyAllowed() bool {
	return l.Q.Root.Axis == tpq.Descendant && l.canCutQ[0]
}

// RootImages returns the admissible images of the query root.
func (l *Labeling) RootImages() []*tpq.Node {
	var out []*tpq.Node
	for j := range l.vn {
		if l.okAt(0, j) {
			out = append(out, l.vn[j])
		}
	}
	return out
}

// Exists reports whether at least one useful embedding exists, i.e.
// whether the query is answerable using the view (Theorem 1). This is
// the polynomial-time existence test of Theorem 2.
func (l *Labeling) Exists() bool {
	if l.emptyAllowed() {
		return true
	}
	return len(l.RootImages()) > 0
}

// Stream enumerates every useful embedding encoded by the labeling
// (including the empty one when admissible), deduplicated on the fly,
// calling emit for each without ever materializing the full set — MCR
// generation consumes this to overlap CR construction with enumeration.
// Enumeration stops with an error if more than limit embeddings are
// produced (counting duplicates) — the MCR can be exponential in |Q|
// (§3.2), so callers must bound the enumeration explicitly. The context
// is polled periodically inside the branching recursion, so cancelling
// it stops an exponential enumeration promptly with ctx's error. An
// error returned by emit aborts the enumeration and is returned as-is.
func (l *Labeling) Stream(ctx context.Context, limit int, emit func(*Embedding) error) error {
	produced := 0
	steps := 0
	seen := make(map[string]bool)
	sig := make([]byte, 0, 4*len(l.qn))
	cur := make(map[*tpq.Node]*tpq.Node, len(l.qn))

	// yield hands the current assignment to emit unless its signature
	// was already seen (different branches can coincide after cuts).
	yield := func() error {
		if err := faultEnumerate.Hit(ctx); err != nil {
			return err
		}
		produced++
		if produced > limit {
			return fmt.Errorf("rewrite: more than %d useful embeddings: %w", limit, ErrEmbeddingBudget)
		}
		sig = sig[:0]
		for i, x := range l.qn {
			if i > 0 {
				sig = append(sig, ',')
			}
			if img, ok := cur[x]; ok {
				sig = strconv.AppendInt(sig, int64(l.vpos(img)), 10)
			} else {
				sig = append(sig, '_')
			}
		}
		if seen[string(sig)] {
			return nil
		}
		seen[string(sig)] = true
		cp := make(map[*tpq.Node]*tpq.Node, len(cur))
		for k, v := range cur {
			cp[k] = v
		}
		return emit(&Embedding{Q: l.Q, V: l.V, M: cp})
	}

	// assign maps the subtree below x given x ∈ cur, then calls next.
	var assign func(x *tpq.Node, next func() error) error
	assign = func(x *tpq.Node, next func() error) error {
		steps++
		if steps&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		img := cur[x]
		j := l.vpos(img)
		// Recursively branch over each child's choices.
		var perChild func(k int) error
		perChild = func(k int) error {
			if k == len(x.Children) {
				return next()
			}
			y := x.Children[k]
			yi := l.qpos(y)
			if l.cutAllowed(y, img, j) {
				if err := perChild(k + 1); err != nil {
					return err
				}
			}
			for _, cand := range l.candidates(y, j) {
				if !l.okAt(yi, l.vpos(cand)) {
					continue
				}
				cur[y] = cand
				err := assign(y, func() error { return perChild(k + 1) })
				delete(cur, y)
				if err != nil {
					return err
				}
			}
			return nil
		}
		return perChild(0)
	}

	if l.emptyAllowed() {
		if err := yield(); err != nil {
			return err
		}
	}
	for _, rootImg := range l.RootImages() {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur[l.Q.Root] = rootImg
		err := assign(l.Q.Root, yield)
		delete(cur, l.Q.Root)
		if err != nil {
			return err
		}
	}
	return nil
}

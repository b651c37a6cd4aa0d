// Package plan compiles the output of the rewriting pipeline — a set
// of compensation queries, one per contained rewriting of the MCR —
// into an executable, immutable answer plan.
//
// The paper's mediator answers a query by running every CR's
// compensation query over the materialized view forest (E ∘ V,
// footnote 1 of §2). Evaluating each compensation naively against each
// view subtree repeats work proportional to |CRs| × |forest| × |E|.
// This package splits that into the classic three phases of the
// structural-join literature the paper cites (Al-Khalifa et al.,
// Bruno et al., and the tree-pattern survey):
//
//   - compile: each compensation query is normalized (root pinned to
//     the view node, the semantics of Pattern.EvaluateAt), deduplicated by canonical form, and lowered to a structural-join
//     program over preorder positions. Plans are pure functions of the
//     CR union, so the engine caches them by Key.
//   - index: the view forest is indexed once into pointer-free int32
//     columns over global positions — (pos, end] interval labels,
//     in-window parents, a path table — plus sorted per-tag posting
//     lists (see Forest), shared by every program and every request
//     against the same materialization.
//   - exec: the programs run against the index with one structural-join
//     kernel over positions — the only executor; the tests pin it
//     against the naive per-view-node evaluators in rewrite and against
//     tpq's tree-DP — and their answers are unioned with document-order
//     dedup.
//
// Forest.Evaluate runs the same kernel for a general (not root-pinned)
// pattern over an IndexDocument forest: the document index the public
// qav package exposes.
//
// Of the query layers the package depends only on tpq and xmltree:
// rewrite, viewstore and engine all sit above it.
package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"qav/internal/obs"
	"qav/internal/tpq"
)

// op is one lowered pattern node: its tag, the axis of the edge to its
// parent, and the preorder positions of its children. The positions
// replace pointer chasing in the exec inner loops.
type op struct {
	tag      string
	axis     tpq.Axis
	children []int32
}

// program is one compiled compensation query.
type program struct {
	// canon is the canonical form of the normalized pattern — the
	// dedup and cache-key unit.
	canon string
	// ops lists the pattern nodes in preorder; ops[0] is the root.
	ops []op
	// path holds the preorder positions of the distinguished path,
	// root first, output last.
	path []int32
}

// Plan is an immutable compiled answer plan: one program per distinct
// compensation query of the CR union. Safe for concurrent use; the
// engine shares one plan across requests via its plan cache.
type Plan struct {
	key      string
	programs []*program
}

// Key returns the plan's cache key: the sorted canonical forms of its
// normalized compensation queries. Two CR sets with the same
// compensations — regardless of order or duplication — share a key and
// therefore a cached plan.
func (p *Plan) Key() string { return p.key }

// Programs returns the number of distinct compiled programs.
func (p *Plan) Programs() int { return len(p.programs) }

// normalize clones comp into the standalone pinned form the kernel
// evaluates: the root axis becomes Child (EvaluateAt ignores the root
// axis, and over a standalone tree a Child root is exactly "pinned to
// the tree root").
func normalize(comp *tpq.Pattern) (*tpq.Pattern, error) {
	if comp == nil || comp.Root == nil {
		return nil, fmt.Errorf("plan: nil compensation pattern")
	}
	if err := comp.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid compensation: %w", err)
	}
	pinned := tpq.SubtreePattern(comp.Root, tpq.Child, comp.Output)
	if pinned.Output == nil {
		return nil, fmt.Errorf("plan: compensation %s has no output node", comp)
	}
	return pinned, nil
}

// KeyOf computes the cache key Compile would give a plan for comps,
// without lowering the programs — what the engine's plan cache looks
// up before deciding to compile.
func KeyOf(comps []*tpq.Pattern) (string, error) {
	canons := make([]string, 0, len(comps))
	seen := make(map[string]bool, len(comps))
	for _, c := range comps {
		pinned, err := normalize(c)
		if err != nil {
			return "", err
		}
		canon := pinned.Canonical()
		if !seen[canon] {
			seen[canon] = true
			canons = append(canons, canon)
		}
	}
	sort.Strings(canons)
	return strings.Join(canons, "\x00"), nil
}

// Compile lowers the compensation queries into an executable plan.
// Duplicate compensations (distinct CRs frequently share one, e.g. the
// trivial compensation) compile to a single program. An empty comps
// set compiles to an empty plan whose Exec returns no answers.
func Compile(ctx context.Context, comps []*tpq.Pattern) (*Plan, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanCompile, start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	byCanon := make(map[string]*program, len(comps))
	for _, c := range comps {
		pinned, err := normalize(c)
		if err != nil {
			return nil, err
		}
		canon := pinned.Canonical()
		if byCanon[canon] != nil {
			continue
		}
		byCanon[canon] = lower(canon, pinned)
	}
	pl := &Plan{programs: make([]*program, 0, len(byCanon))}
	canons := make([]string, 0, len(byCanon))
	for canon := range byCanon {
		canons = append(canons, canon)
	}
	sort.Strings(canons)
	for _, canon := range canons {
		pl.programs = append(pl.programs, byCanon[canon])
	}
	pl.key = strings.Join(canons, "\x00")
	return pl, nil
}

// lower turns a normalized pattern into its structural-join program.
func lower(canon string, pinned *tpq.Pattern) *program {
	nodes := pinned.PreorderNodes()
	pr := &program{
		canon: canon,
		ops:   make([]op, len(nodes)),
	}
	for i, n := range nodes {
		o := op{tag: n.Tag, axis: n.Axis}
		for _, c := range n.Children {
			o.children = append(o.children, int32(pinned.Preorder(c)))
		}
		pr.ops[i] = o
	}
	for _, n := range pinned.DistinguishedPath() {
		pr.path = append(pr.path, int32(pinned.Preorder(n)))
	}
	return pr
}

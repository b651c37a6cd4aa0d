package rewrite

import (
	"context"
	"testing"
	"time"

	"qav/internal/tpq"
)

// rewriteFuzzSeeds is the (query, view) seed corpus of the rewrite
// fuzz targets.
var rewriteFuzzSeeds = [][2]string{
	{"//Trials[//Status]//Trial", "//Trials//Trial"}, // Figure 1
	{"//a//a/b/c[d1][//a/b/c/d2]", "//a//a/b/c"},     // Figure 8
	{"//a//b[c]", "//a//b"},                          // Figure 9 core
	{"/a/b", "//b"},
	{"//a/b", "/a"},
	{"//a[b][c]//d", "//a//d"},
	{"//a", "//b"}, // unanswerable
}

// FuzzRewriteRoundTrip drives MCR generation with fuzzer-chosen
// query/view expressions and checks the structural contracts of every
// contained rewriting it emits: the rewriting and compensation
// patterns are valid, survive a print/parse round trip, and each
// rewriting is contained in the query (the soundness half of
// Theorem 1 — an MCR may drop answers, never invent them).
func FuzzRewriteRoundTrip(f *testing.F) {
	for _, s := range rewriteFuzzSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, qExpr, vExpr string) {
		q, err := tpq.Parse(qExpr)
		if err != nil {
			return
		}
		v, err := tpq.Parse(vExpr)
		if err != nil {
			return
		}
		res, err := MCR(q, v, Options{MaxEmbeddings: 64})
		if err != nil {
			return // budget exhausted on an adversarial input is fine
		}
		if len(res.CRs) != len(res.Union.Patterns) {
			t.Fatalf("q=%s v=%s: %d CRs but %d union patterns", q, v, len(res.CRs), len(res.Union.Patterns))
		}
		for i, cr := range res.CRs {
			for _, p := range []*tpq.Pattern{cr.Rewriting, cr.Compensation} {
				if err := p.Validate(); err != nil {
					t.Fatalf("q=%s v=%s CR %d: invalid pattern %s: %v", q, v, i, p, err)
				}
				s := p.String()
				p2, err := tpq.Parse(s)
				if err != nil {
					t.Fatalf("q=%s v=%s CR %d: %q not reparsable: %v", q, v, i, s, err)
				}
				if !p.StructuralEqual(p2) {
					t.Fatalf("q=%s v=%s CR %d: round trip changed %q", q, v, i, s)
				}
			}
			if !tpq.Contained(cr.Rewriting, q) {
				t.Fatalf("q=%s v=%s CR %d: rewriting %s not contained in the query", q, v, i, cr.Rewriting)
			}
			if cr.Compensation.Root.Tag != v.Output.Tag {
				t.Fatalf("q=%s v=%s CR %d: compensation rooted at %q, view output is %q",
					q, v, i, cr.Compensation.Root.Tag, v.Output.Tag)
			}
		}
	})
}

// FuzzMCRPipelinesAgree cross-checks the entry points that share the
// contained-rewriting pipeline on fuzzer-chosen (q, v): MCRMultiView
// over the single view v must return MCR's union, disjunct for
// disjunct, with the same partial outcome under a small embedding
// budget; and on small patterns a complete MCR must be equivalent to
// the brute-force NaiveMCR (maximality as well as soundness).
func FuzzMCRPipelinesAgree(f *testing.F) {
	for _, s := range rewriteFuzzSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, qExpr, vExpr string) {
		q, err := tpq.Parse(qExpr)
		if err != nil {
			return
		}
		v, err := tpq.Parse(vExpr)
		if err != nil {
			return
		}
		opts := Options{MaxEmbeddings: 64}
		single, errSingle := MCR(q, v, opts)
		multi, errMulti := MCRMultiView(q, []ViewSource{{Name: "v", View: v}}, opts)
		if (errSingle == nil) != (errMulti == nil) {
			t.Fatalf("q=%s v=%s: MCR err=%v, MCRMultiView err=%v", q, v, errSingle, errMulti)
		}
		if errSingle != nil {
			return
		}
		if single.Partial != multi.Partial || single.PartialReason != multi.PartialReason {
			t.Fatalf("q=%s v=%s: MCR partial=%v(%s), MCRMultiView partial=%v(%s)",
				q, v, single.Partial, single.PartialReason, multi.Partial, multi.PartialReason)
		}
		if a, b := canonicals(single.Union), canonicals(multi.Union); !sameStrings(a, b) {
			t.Fatalf("q=%s v=%s:\n  MCR:          %v\n  MCRMultiView: %v", q, v, a, b)
		}
		if single.Partial || q.Size() > 8 || v.Size() > 8 {
			return
		}
		// NaiveMCR is exponential even at 8 nodes; a time-boxed run
		// that does not finish is skipped, not failed.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		naive, err := NaiveMCR(ctx, q, v)
		if err != nil {
			return
		}
		if !single.Union.SameAs(naive.Union) {
			t.Fatalf("q=%s v=%s: MCR and NaiveMCR disagree:\n  mcrgen: %v\n  naive:  %v",
				q, v, disjunctSet(single), disjunctSet(naive))
		}
	})
}

// canonicals returns the canonical forms of u's disjuncts, in order.
func canonicals(u *tpq.Union) []string {
	out := make([]string, len(u.Patterns))
	for i, p := range u.Patterns {
		out[i] = p.Canonical()
	}
	return out
}

package qav_test

// One benchmark per experiment of the reproduction (see the experiment
// index in DESIGN.md and the recorded results in EXPERIMENTS.md).
// cmd/qavbench prints the same measurements as human-readable tables.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"qav"
	"qav/internal/chase"
	"qav/internal/constraints"
	"qav/internal/engine"
	"qav/internal/plan"
	"qav/internal/rewrite"
	"qav/internal/server"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
)

// E1 (Theorem 2): the polynomial answerability test, scaling |Q| and |V|.
func BenchmarkUseEmbExistence(b *testing.B) {
	alphabet := []string{"a", "b", "c", "d"}
	for _, nq := range []int{8, 32, 128} {
		for _, nv := range []int{8, 32, 64} {
			rng := rand.New(rand.NewSource(1))
			qs := make([]*tpq.Pattern, 16)
			vs := make([]*tpq.Pattern, 16)
			for i := range qs {
				qs[i] = workload.RandomPattern(rng, alphabet, nq)
				vs[i] = workload.RandomPattern(rng, alphabet, nv)
			}
			b.Run(fmt.Sprintf("Q%d/V%d", nq, nv), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rewrite.Answerable(qs[i%len(qs)], vs[i%len(vs)])
				}
			})
		}
	}
}

// E2 (§3.2, Example 1): MCR generation on the Figure 8 family, whose
// output size is 2^n.
func BenchmarkMCRGenExponential(b *testing.B) {
	v := workload.Fig8View()
	for n := 2; n <= 7; n++ {
		q := workload.Fig8Query(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rewrite.MCR(q, v, rewrite.Options{MaxEmbeddings: 1 << 22})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Union.Patterns) != 1<<n {
					b.Fatalf("got %d CRs, want %d", len(res.Union.Patterns), 1<<n)
				}
			}
		})
	}
}

// E3 (Theorem 5): constraint inference, scaling |S|.
func BenchmarkInference(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128} {
		g := workload.RandomDAGSchema(rand.New(rand.NewSource(1)), n, 0.3)
		b.Run(fmt.Sprintf("S%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				constraints.Infer(g)
			}
		})
	}
}

// E5/E8 (Figure 12 / Lemma 4): exhaustive chase explodes on stacked
// diamond schemas; the intelligent chase stays proportional to the
// query.
func BenchmarkChase(b *testing.B) {
	q := tpq.MustParse("/x0[b0]")
	for _, levels := range []int{2, 4, 6} {
		g := workload.DiamondSchema(levels)
		sigma := constraints.Infer(g)
		scOnly := constraints.NewSet(sigma.OfKind(constraints.SC))
		v := tpq.MustParse("/x0")
		b.Run(fmt.Sprintf("exhaustive/levels%d", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.Exhaustive(context.Background(), v, scOnly, chase.Options{MaxSteps: 1 << 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("intelligent/levels%d", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chase.Intelligent(v, q, sigma)
			}
		})
	}
}

// E4 (Theorem 9): MCRGenSchema end to end on random schemas.
func BenchmarkMCRGenSchema(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		rng := rand.New(rand.NewSource(1))
		g := workload.RandomDAGSchema(rng, n, 0.3)
		sc := rewrite.NewSchemaContext(g)
		qs := make([]*tpq.Pattern, 16)
		vs := make([]*tpq.Pattern, 16)
		for i := range qs {
			qs[i] = workload.RandomSchemaPattern(rng, g, 8)
			vs[i] = workload.RandomSchemaPattern(rng, g, 8)
		}
		b.Run(fmt.Sprintf("S%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.MCRWithSchema(qs[i%len(qs)], vs[i%len(vs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 ([14] "substantial savings"): direct query evaluation vs applying
// the compensation to a pre-materialized view.
func BenchmarkViewAnswering(b *testing.B) {
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	v := tpq.MustParse("//Trials[//Status]")
	res, err := rewrite.MCR(q, v, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, groups := range []int{1000, 10000} {
		d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(1)), groups, 10, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		viewNodes := rewrite.MaterializeView(v, d)
		b.Run(fmt.Sprintf("direct/groups%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Evaluate(d)
			}
		})
		b.Run(fmt.Sprintf("materialize/groups%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rewrite.MaterializeView(v, d)
			}
		})
		b.Run(fmt.Sprintf("viaView/groups%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rewrite.AnswerMaterialized(context.Background(), res.CRs, d, viewNodes)
			}
		})
	}
}

// E7 ([14] "minor overhead"): the answerability test and rewriting
// generation are independent of document size; compare with
// BenchmarkViewAnswering's per-evaluation cost.
func BenchmarkOverhead(b *testing.B) {
	q := tpq.MustParse("//Trials[//Status]//Trial/Patient")
	v := tpq.MustParse("//Trials//Trial")
	b.Run("answerable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rewrite.Answerable(q, v)
		}
	})
	b.Run("mcrgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.MCR(q, v, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E9 (ablation): the label-driven MCRGen vs the brute-force baseline
// that enumerates every partial matching.
func BenchmarkNaiveVsMCRGen(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c"}
	qs := make([]*tpq.Pattern, 32)
	vs := make([]*tpq.Pattern, 32)
	for i := range qs {
		qs[i] = workload.RandomPattern(rng, alphabet, 6)
		vs[i] = workload.RandomPattern(rng, alphabet, 6)
	}
	b.Run("mcrgen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.MCR(qs[i%len(qs)], vs[i%len(vs)], rewrite.Options{MaxEmbeddings: 1 << 18}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.NaiveMCR(context.Background(), qs[i%len(qs)], vs[i%len(vs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Pattern evaluation itself, the substrate for everything above.
func BenchmarkEvaluate(b *testing.B) {
	q := qav.MustParseQuery("//Trials[//Status]//Trial/Patient")
	for _, groups := range []int{100, 1000} {
		d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(1)), groups, 10, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("groups%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Evaluate(d)
			}
		})
	}
}

// Containment via homomorphism, the decision procedure behind
// redundancy elimination.
func BenchmarkContainment(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "b", "c"}
	ps := make([]*tpq.Pattern, 64)
	for i := range ps {
		ps[i] = workload.RandomPattern(rng, alphabet, 12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpq.Contained(ps[i%len(ps)], ps[(i+1)%len(ps)])
	}
}

// E10 (§5): recursive-schema MCR on the Figure 15 family.
func BenchmarkMCRRecursive(b *testing.B) {
	v := tpq.MustParse("//a//b")
	for _, k := range []int{2, 4, 6} {
		g := workload.Fig15Schema(k)
		sc := rewrite.NewSchemaContext(g)
		q := workload.Fig15Query(k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sc.MCRRecursive(q, v, rewrite.Options{MaxEmbeddings: rewrite.DefaultMaxEmbeddings})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Union.Patterns) != 1<<k {
					b.Fatalf("got %d CRs, want %d", len(res.Union.Patterns), 1<<k)
				}
			}
		})
	}
}

// E11 (substrate ablation): the tree-DP evaluator vs the structural-join
// engine on a selective query.
func BenchmarkEngines(b *testing.B) {
	d, err := workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(1)), 5000, 10, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	ix := qav.BuildIndex(d)
	for _, expr := range []string{"//Trials[//Status]//Trial/Patient", "//Status"} {
		q := tpq.MustParse(expr)
		b.Run("treedp/"+expr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Evaluate(d)
			}
		})
		b.Run("structjoin/"+expr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Evaluate(context.Background(), q)
			}
		})
	}
}

// E13 (engine layer): the cost of a rewriting through the Engine front
// door. "cold" bypasses the cache and measures the raw pipeline plus
// engine overhead; "cached" measures a cache hit; "concurrentDup" has
// every GOMAXPROCS worker request the same cold key — singleflight
// collapses the duplicates into one computation per cache reset.
func BenchmarkEngineRewrite(b *testing.B) {
	ctx := context.Background()
	q := workload.Fig8Query(5)
	v := workload.Fig8View()
	req := engine.Request{Query: q, View: v, MaxEmbeddings: rewrite.DefaultMaxEmbeddings}

	b.Run("cold", func(b *testing.B) {
		eng := engine.New(engine.Config{})
		cold := req
		cold.NoCache = true
		for i := 0; i < b.N; i++ {
			if _, err := eng.Rewrite(ctx, cold); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := engine.New(engine.Config{})
		if _, err := eng.Rewrite(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Rewrite(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrentDup", func(b *testing.B) {
		eng := engine.New(engine.Config{})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := eng.Rewrite(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// Pattern minimization (the Amer-Yahia et al. extension).
func BenchmarkMinimize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ps := make([]*tpq.Pattern, 32)
	for i := range ps {
		ps[i] = workload.RandomPattern(rng, []string{"a", "b"}, 14)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpq.Minimize(ps[i%len(ps)])
	}
}

// E14 (stored-view answering): the answer path over the ~190k-node
// ClinicalTrialsDoc(50, 1800, 0.25) forests of //Trials and
// //Trials//Trial. "exec" runs the compiled plan over the cached
// forest index; "handler" serves POST /v1/answer in stored-view mode,
// adding the cached rewrite, the JSON encoding of every answer and
// the HTTP plumbing.
func BenchmarkStoredAnswer(b *testing.B) {
	ctx := context.Background()
	d, err := workload.ClinicalTrialsDoc(ctx, rand.New(rand.NewSource(2006)), 50, 1800, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.Config{CacheSize: 64})
	views := map[string]*viewstore.Materialized{}
	for name, expr := range map[string]string{"trial": "//Trials//Trial", "trials": "//Trials"} {
		views[name] = viewstore.Materialize(tpq.MustParse(expr), d)
		eng.RegisterView(name, views[name])
	}
	h := server.NewWith(eng)
	for _, c := range []struct{ query, view string }{
		{"//Trials//Trial/Status", "trial"},
		{"//Trials//Trial[Status]/Patient", "trial"},
		{"//Trials[Trial/Patient]", "trials"},
	} {
		m := views[c.view]
		res, err := rewrite.MCR(tpq.MustParse(c.query), m.Expr, rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := plan.Compile(ctx, rewrite.Compensations(res.CRs))
		if err != nil {
			b.Fatal(err)
		}
		f, err := m.ForestIndex(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("exec/"+c.query, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Exec(ctx, f, plan.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		body := `{"query":"` + c.query + `","viewName":"` + c.view + `"}`
		b.Run("handler/"+c.query, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body)))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

package rewrite

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/tpq"
)

// Fault-injection points of the MCR pipeline (no-ops unless a chaos
// plan arms them; see internal/fault).
var (
	faultBuildCR = fault.Register(names.FaultRewriteBuildCR)
	faultContain = fault.Register(names.FaultRewriteContain)
	faultWorker  = fault.Register(names.FaultRewriteWorker)
)

// Answerable reports whether the query is answerable using the view in
// the absence of a schema — i.e. whether a maximal contained rewriting
// exists (Theorem 1). It runs the polynomial labeling test of Theorem 2
// only; no rewriting is materialized.
// Wildcard patterns (XP{/,//,[],*}) are outside the algorithm's
// fragment and always report false.
func Answerable(q, v *tpq.Pattern) bool {
	if q.HasWildcard() || v.HasWildcard() {
		return false
	}
	return ComputeLabels(q, v, nil).Exists()
}

// DefaultMaxEmbeddings is the embedding-enumeration budget applied when
// Options.MaxEmbeddings is zero. The MCR can be a union of exponentially
// many tree patterns (§3.2, Example 1), so every entry point bounds the
// enumeration; this is the shared generous default.
const DefaultMaxEmbeddings = 1 << 20

// Options bounds MCR generation. The MCR can be a union of
// exponentially many tree patterns (§3.2, Example 1), so generation is
// explicitly budgeted.
type Options struct {
	// MaxEmbeddings bounds the number of useful embeddings enumerated;
	// 0 means DefaultMaxEmbeddings.
	MaxEmbeddings int
	// Context carries cancellation and deadlines into the exponential
	// hot loops (embedding enumeration, CR construction, redundancy
	// elimination): when it is cancelled, generation stops promptly and
	// the context's error is returned. nil means context.Background().
	Context context.Context
}

// ctx returns the configured context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// limit returns the embedding budget, defaulting to
// DefaultMaxEmbeddings.
func (o Options) limit() int {
	if o.MaxEmbeddings <= 0 {
		return DefaultMaxEmbeddings
	}
	return o.MaxEmbeddings
}

// errWildcard rejects patterns outside the algorithms' fragment.
var errWildcard = errors.New("rewrite: wildcard patterns are outside XP{/,//,[]}; the MCR algorithms do not support them")

// Result is the output of MCR generation.
type Result struct {
	// Union is the maximal contained rewriting as a union of tree
	// patterns, irredundant (no disjunct contains another).
	Union *tpq.Union
	// CRs carries the rewritings with their compensation queries and
	// inducing embeddings, aligned with Union.Patterns.
	CRs []*ContainedRewriting
	// EmbeddingsConsidered is the number of distinct useful embeddings
	// enumerated before redundancy elimination.
	EmbeddingsConsidered int
	// Partial reports that generation stopped early — the embedding
	// budget was exhausted or the context deadline expired mid-stream —
	// and Union is the sound subset found up to that point. A partial
	// union is still a contained rewriting of the query (every CR is
	// individually verified), it just may not be maximal. Partial
	// results skip redundancy elimination (its quadratic containment
	// matrix is exactly the work the budget is protecting against), so
	// disjuncts may overlap. Partial results are never cached.
	Partial bool
	// PartialReason is PartialBudget or PartialDeadline when Partial.
	PartialReason PartialReason
}

// PartialReason classifies why a Result is Partial. The zero value
// (empty string) means the result is complete; the named type keeps
// switches over it checkable by the exhaustive analyzer.
type PartialReason string

// Reasons a Result can be Partial.
const (
	PartialBudget   PartialReason = "budget"
	PartialDeadline PartialReason = "deadline"
)

// partialReason classifies an in-flight pipeline error: budget and
// deadline overruns degrade into partial results, everything else —
// including client cancellation, where nobody is left to read a
// partial answer — stays an error.
func partialReason(err error) PartialReason {
	switch {
	case errors.Is(err, ErrEmbeddingBudget):
		return PartialBudget
	case errors.Is(err, context.DeadlineExceeded):
		return PartialDeadline
	}
	return ""
}

// MCR computes the maximal contained rewriting of q using v without a
// schema (Algorithm MCRGen, Fig 10). It returns an empty-union result
// when q is not answerable using v. Every returned CR is verified
// contained in q by homomorphism.
//
// MCR, MCRRecursive and MCRMultiView share one pipeline: generateCRs
// streams the useful embeddings through buildVerify, and assemble
// turns the verified CRs into an irredundant union. They differ only
// in the labeling and in the containment that decides a CR.
func MCR(q, v *tpq.Pattern, opts Options) (*Result, error) {
	if q.HasWildcard() || v.HasWildcard() {
		return nil, errWildcard
	}
	ctx := opts.ctx()
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	labels := ComputeLabels(q, v, nil)
	sp.Observe(obs.StageEnumerate, t)
	if !labels.Exists() {
		return &Result{Union: &tpq.Union{}}, nil
	}
	return mcrPipeline(ctx, labels, v, containedIn(q), tpq.Contained, opts.limit())
}

// crCheck decides whether a freshly built CR belongs in the union:
// keep=false drops it, an error fails the whole run.
type crCheck func(cr *ContainedRewriting) (keep bool, err error)

// containedIn is the schemaless check: every CR must be contained in
// q. Useful embeddings induce contained rewritings by construction, so
// a failure indicates a bug upstream.
func containedIn(q *tpq.Pattern) crCheck {
	return func(cr *ContainedRewriting) (bool, error) {
		if !cr.VerifyContained(q) {
			return false, fmt.Errorf("rewrite: internal error: CR %s not contained in %s (embedding %s)", cr.Rewriting, q, cr.Embedding)
		}
		return true, nil
	}
}

// mcrPipeline is the tail every MCR algorithm shares once its labeling
// is computed: enumerate, build and check the CRs, then assemble them
// under contains. A budget or deadline overrun degrades into a Partial
// result: the CRs built before the wall each passed check, so their
// union is a sound, possibly non-maximal, rewriting.
func mcrPipeline(ctx context.Context, labels *Labeling, base *tpq.Pattern, check crCheck, contains func(p, q *tpq.Pattern) bool, limit int) (*Result, error) {
	crs, considered, err := generateCRs(ctx, labels, base, check, limit)
	reason := partialReason(err)
	if err != nil && reason == "" {
		return nil, err
	}
	return assemble(ctx, crs, considered, contains, reason)
}

// buildVerify materializes the CR that embedding f induces against
// base and runs check on it; (nil, nil) means check dropped it. It is
// panic-isolated: a pattern tripping an invariant in CR construction
// must fail that request, not the process (the named-return defer
// converts the panic into a typed ErrInternal with its stack, which
// the engine routes into the slow log).
func buildVerify(ctx context.Context, f *Embedding, base *tpq.Pattern, check crCheck) (cr *ContainedRewriting, err error) {
	defer guard.Recover(&err, "rewrite.buildVerify")
	if err := faultBuildCR.Hit(ctx); err != nil {
		return nil, err
	}
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	cr, err = BuildCR(f, base)
	sp.Observe(obs.StageBuildCR, t)
	if err != nil {
		return nil, fmt.Errorf("rewrite: embedding %s: %w", f, err)
	}
	t = sp.Start()
	keep, err := check(cr)
	sp.Observe(obs.StageContain, t)
	if !keep {
		return nil, err
	}
	return cr, nil
}

// crPipelineBatch is the streaming pipeline's serial threshold: an
// enumeration that finishes within this many embeddings is processed
// inline (no goroutines, no channels); anything larger spills into the
// bounded worker pool.
const crPipelineBatch = 16

// seqEmb tags an embedding with its enumeration sequence number so the
// pipeline can restore deterministic order.
type seqEmb struct {
	seq int
	f   *Embedding
}

type seqCR struct {
	seq int
	cr  *ContainedRewriting
}

// generateCRs fuses embedding enumeration with buildVerify, so the
// embedding set is never fully materialized. The first crPipelineBatch
// embeddings are buffered: a short stream is then handled serially,
// while a longer one starts GOMAXPROCS workers that build and check CRs
// concurrently with the ongoing enumeration, over a bounded channel.
// Output order (and thus every downstream result, including which
// embedding represents a structurally duplicated CR) matches the
// serial enumeration order. The int result counts the embeddings
// considered.
//
// Partial contract: when the returned error is an embedding-budget
// overrun or context.DeadlineExceeded, the returned CRs are the sound
// subset completed before the wall and the caller may degrade into a
// Partial result. On any other error the CR slice is nil.
func generateCRs(ctx context.Context, labels *Labeling, base *tpq.Pattern, check crCheck, limit int) ([]*ContainedRewriting, int, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		head []*Embedding // buffered prefix; stays serial if the stream ends early
		in   chan seqEmb
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  []seqCR
		werr error
	)
	fail := func(err error) {
		mu.Lock()
		if werr == nil {
			werr = err
		}
		mu.Unlock()
		cancel()
	}
	worker := func() {
		defer wg.Done()
		// Last-resort isolation: buildVerify recovers its own panics,
		// so this fires only for bugs in the worker loop itself; the
		// flight fails and the pipeline unblocks via the cancel in
		// fail, rather than the process dying.
		defer guard.Rescue("rewrite.mcrWorker", fail)
		for e := range in {
			if pctx.Err() != nil {
				continue // drain after cancellation
			}
			if err := faultWorker.Hit(pctx); err != nil {
				fail(err)
				continue
			}
			cr, err := buildVerify(ctx, e.f, base, check)
			if err != nil {
				fail(err)
				continue
			}
			if cr != nil {
				mu.Lock()
				out = append(out, seqCR{e.seq, cr})
				mu.Unlock()
			}
		}
	}
	seq := 0
	send := func(f *Embedding) error {
		select {
		case in <- seqEmb{seq, f}:
			seq++
			return nil
		case <-pctx.Done():
			return pctx.Err()
		}
	}
	emit := func(f *Embedding) error {
		if in == nil {
			head = append(head, f)
			if len(head) < crPipelineBatch {
				return nil
			}
			// The enumeration is large enough to amortize the pipeline:
			// start the workers and spill the buffered prefix.
			workers := runtime.GOMAXPROCS(0)
			in = make(chan seqEmb, 2*workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go worker()
			}
			for _, h := range head {
				if err := send(h); err != nil {
					return err
				}
			}
			head = nil
			return nil
		}
		return send(f)
	}

	// The Stream call is the enumeration driver; in pipeline mode its
	// wall time overlaps the workers' buildcr/contain time, so stage
	// totals may sum past the request's duration. A nil span costs a
	// nil check per credit and no clock reads; span credits are atomic,
	// so the workers record into it directly.
	sp := obs.SpanFrom(ctx)
	t := sp.Start()
	streamErr := labels.Stream(ctx, limit, emit)
	sp.Observe(obs.StageEnumerate, t)

	if in == nil {
		// Serial path: the whole enumeration fit in the head buffer.
		if streamErr != nil && partialReason(streamErr) == "" {
			return nil, 0, streamErr
		}
		var crs []*ContainedRewriting
		for _, f := range head {
			// On a budget/deadline overrun, still finish the buffered
			// prefix (bounded: at most crPipelineBatch items) so the
			// partial union is as large as the enumeration allowed; a
			// live stream keeps honoring ctx per item.
			if streamErr == nil {
				if err := ctx.Err(); err != nil {
					return nil, 0, err
				}
			}
			cr, err := buildVerify(ctx, f, base, check)
			if err != nil {
				return nil, 0, err
			}
			if cr != nil {
				crs = append(crs, cr)
			}
		}
		return crs, len(head), streamErr
	}

	close(in)
	wg.Wait()
	if werr != nil {
		// A worker failure wins over the stream error: the stream aborts
		// with pctx's cancellation, which is a symptom, not the cause.
		return nil, 0, werr
	}
	if streamErr == nil {
		streamErr = ctx.Err()
	}
	if streamErr != nil && partialReason(streamErr) == "" {
		return nil, 0, streamErr
	}
	// Workers drained whatever was in flight; on a budget or deadline
	// wall their completed CRs are the sound subset.
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	crs := make([]*ContainedRewriting, len(out))
	for i, s := range out {
		crs[i] = s.cr
	}
	return crs, seq, streamErr
}

// assemble turns checked CRs into a Result. Different embeddings
// frequently induce identical rewritings after grafting, so it first
// dedups structurally (the first occurrence wins) and orders the
// survivors smallest-first, so that each equivalence class keeps its
// most compact representative. A complete run (reason == "") then
// drops every CR that is, under contains, contained in another. That
// quadratic matrix dominates exponential MCRs, so it is credited to
// the contain stage and honors ctx: a deadline inside it degrades the
// run into a deadline Partial.
//
// Partial results keep the dedup and the order but skip the matrix —
// exactly the work a budget or deadline wall protects against — so
// their disjuncts may overlap.
func assemble(ctx context.Context, crs []*ContainedRewriting, considered int, contains func(p, q *tpq.Pattern) bool, reason PartialReason) (*Result, error) {
	seen := make(map[string]bool, len(crs))
	uniq := make([]*ContainedRewriting, 0, len(crs))
	for _, cr := range crs {
		key := cr.Rewriting.Canonical()
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, cr)
		}
	}
	sortCRs(uniq)
	var redundant []bool
	if reason == "" {
		sp := obs.SpanFrom(ctx)
		t := sp.Start()
		var err error
		redundant, err = markRedundant(ctx, len(uniq), func(i, j int) bool {
			return contains(uniq[i].Rewriting, uniq[j].Rewriting)
		})
		sp.Observe(obs.StageContain, t)
		if reason = partialReason(err); err != nil && reason == "" {
			return nil, err
		}
	}
	res := &Result{Union: &tpq.Union{}, EmbeddingsConsidered: considered, Partial: reason != "", PartialReason: reason}
	for i, cr := range uniq {
		if redundant != nil && redundant[i] {
			continue
		}
		cr.ensureCompensation()
		res.CRs = append(res.CRs, cr)
		res.Union.Patterns = append(res.Union.Patterns, cr.Rewriting)
	}
	return res, nil
}

// NaiveMCR is the brute-force baseline used as ground truth in tests
// and as the ablation baseline in the benchmarks: it enumerates EVERY
// structurally valid partial matching f : Q ⇝ V (upward closed, no
// usefulness conditions), builds the graft-at-dV rewriting for each,
// keeps exactly those contained in q, and removes redundant ones.
// Exponential in |Q| and |V|; use only on small inputs. The context is
// checked periodically inside the matching recursion, so a cancelled
// ctx stops the enumeration promptly.
func NaiveMCR(ctx context.Context, q, v *tpq.Pattern) (*Result, error) {
	qn := q.PreorderNodes()
	vn := v.PreorderNodes()
	// Candidate images per tag, in view preorder: same iteration order
	// as scanning vn with a tag filter, without the scan.
	vByTag := make(map[string][]*tpq.Node)
	for _, img := range vn {
		vByTag[img.Tag] = append(vByTag[img.Tag], img)
	}
	// The partial matching is a slice indexed by query preorder position
	// (nil = unmapped): assignment, undo and the upward-closure lookup
	// are plain array stores, no hashing. Only accepted matchings are
	// converted to an Embedding map.
	cur := make([]*tpq.Node, len(qn))
	mapped := 0
	parentIdx := make([]int, len(qn))
	for i, x := range qn {
		parentIdx[i] = q.Preorder(x.Parent) // -1 for the root
	}
	outIdx := q.Preorder(q.Output)

	var crs []*ContainedRewriting
	considered := 0
	steps := 0

	var rec func(i int) error
	rec = func(i int) error {
		steps++
		if steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if i == len(qn) {
			// Expressibility: a mapped query output must be the view
			// output, else E ∘ V cannot return it. Checked before any
			// allocation so rejected matchings cost nothing.
			if img := cur[outIdx]; img != nil && img != v.Output {
				return nil
			}
			if mapped == 0 && q.Root.Axis != tpq.Descendant {
				return nil
			}
			m := make(map[*tpq.Node]*tpq.Node, mapped)
			for j, img := range cur {
				if img != nil {
					m[qn[j]] = img
				}
			}
			f := &Embedding{Q: q, V: v, M: m}
			considered++
			cr, err := buildUnchecked(f, v)
			if err != nil {
				return nil
			}
			if tpq.Contained(cr.Rewriting, q) {
				crs = append(crs, cr)
			}
			return nil
		}
		x := qn[i]
		// Option 1: leave x (and transitively its subtree) unmapped.
		if err := rec(i + 1); err != nil {
			return err
		}
		// Option 2: map x to every structurally consistent view node.
		if pi := parentIdx[i]; pi >= 0 {
			pimg := cur[pi]
			if pimg == nil {
				return nil // upward closure: parent unmapped
			}
			for _, img := range vByTag[x.Tag] {
				valid := false
				switch x.Axis {
				case tpq.Child:
					valid = img.Parent == pimg && img.Axis == tpq.Child
				case tpq.Descendant:
					valid = pimg.IsAncestorOf(img)
				}
				if !valid {
					continue
				}
				cur[i] = img
				mapped++
				err := rec(i + 1)
				cur[i] = nil
				mapped--
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, img := range vByTag[x.Tag] {
			if x.Axis == tpq.Child && (img != v.Root || v.Root.Axis != tpq.Child) {
				continue
			}
			cur[i] = img
			mapped++
			err := rec(i + 1)
			cur[i] = nil
			mapped--
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	res, err := assemble(ctx, crs, considered, tpq.Contained, "")
	if err == nil && res.Partial {
		// The ground truth is never partial: a deadline inside
		// redundancy elimination fails the run like one in the
		// enumeration above.
		return nil, ctx.Err()
	}
	return res, err
}

// markRedundant computes, for each CR index, whether it is strictly
// contained in another CR or equivalent to an earlier one. The
// criterion is order-independent (containment is transitive, so a
// witness that is itself redundant always leads to an irredundant one),
// which lets the quadratic containment matrix run rows in parallel —
// the dominating cost when the MCR is exponential (§3.2). ctx is polled
// between rows, so cancellation aborts the matrix promptly.
func markRedundant(ctx context.Context, n int, contains func(i, j int) bool) ([]bool, error) {
	redundant := make([]bool, n)
	err := parallelFor(ctx, n, 32, func(i int) error {
		if i&31 == 0 {
			if err := faultContain.Hit(ctx); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if i == j || !contains(i, j) {
				continue
			}
			// Strictly contained in j, or equivalent to the earlier j.
			if !contains(j, i) || j < i {
				redundant[i] = true
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return redundant, nil
}

// parallelFor calls body(i) for every i in [0, n), on up to GOMAXPROCS
// workers that take indices from an atomic counter — serially below
// minParallel items or on a single CPU. It stops handing out indices
// once ctx is done or a call fails. The first failure wins, and a panic
// in body fails the loop with a guard.ErrInternal instead of killing
// the process. It returns that failure, else ctx's error if ctx ended
// before every index ran.
func parallelFor(ctx context.Context, n, minParallel int, body func(i int) error) (err error) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if n < minParallel || workers <= 1 {
		defer guard.Recover(&err, "rewrite.parallelFor")
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		werr error
	)
	fail := func(err error) {
		mu.Lock()
		if werr == nil {
			werr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.Rescue("rewrite.parallelFor", fail)
			for pctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := body(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if werr != nil {
		return werr
	}
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// sortCRs orders rewritings by size then canonical form, so redundancy
// elimination deterministically keeps the most compact representative
// of each equivalence class.
func sortCRs(crs []*ContainedRewriting) {
	sort.Slice(crs, func(i, j int) bool {
		si, sj := crs[i].Rewriting.Size(), crs[j].Rewriting.Size()
		if si != sj {
			return si < sj
		}
		return crs[i].Rewriting.Canonical() < crs[j].Rewriting.Canonical()
	})
}

// buildUnchecked constructs the graft-at-dV rewriting for any partial
// matching without requiring usefulness; the caller filters by
// containment.
func buildUnchecked(f *Embedding, base *tpq.Pattern) (*ContainedRewriting, error) {
	r, dVc := base.CloneTrack(base.Output)
	var outClone *tpq.Node
	graft := func(y *tpq.Node) {
		cp, oc := tpq.CloneSubtreeTrack(y, f.Q.Output)
		if oc != nil {
			outClone = oc
		}
		dVc.Attach(y.Axis, cp)
	}
	if f.Empty() {
		graft(f.Q.Root)
	} else {
		for _, x := range f.Terminals() {
			for _, y := range x.Children {
				if !f.Defined(y) {
					graft(y)
				}
			}
		}
	}
	if f.Defined(f.Q.Output) {
		r.SetOutput(dVc)
	} else {
		if outClone == nil {
			return nil, fmt.Errorf("rewrite: query output neither mapped nor grafted")
		}
		r.SetOutput(outClone)
	}
	// Index the finished rewriting before it escapes: CRs flow into
	// parallel redundancy elimination, where concurrent readers must
	// never trigger a lazy relabel.
	r.Reindex()
	// The compensation is extracted on demand (ensureCompensation):
	// candidate CRs rejected by the containment filter never pay for it.
	return &ContainedRewriting{Rewriting: r, Embedding: f, dVc: dVc}, nil
}

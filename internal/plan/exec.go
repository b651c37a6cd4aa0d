package plan

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/obs"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// faultExec fires at the top of every plan execution (no-op unless a
// chaos plan arms it; see internal/fault).
var faultExec = fault.Register(names.FaultPlanExec)

// ExecOptions tune one plan execution.
type ExecOptions struct {
	// Parallel bounds the number of programs executing concurrently;
	// <= 0 means GOMAXPROCS.
	Parallel int
}

// ExecResult is the outcome of one plan execution.
type ExecResult struct {
	// Positions holds the deduplicated answer union as forest
	// positions in document order: global preorder for a
	// shared-document forest, (tree, preorder) for a shipped forest.
	// A node that matches under several windows of a shared forest is
	// reported once, at its position in the first such window.
	Positions []int32

	forest *Forest
}

// Forest returns the forest the positions index into.
func (r *ExecResult) Forest() *Forest { return r.forest }

// Nodes resolves the answer positions to their nodes, preserving
// order. It allocates per answer; the serving path reads the forest
// columns instead.
func (r *ExecResult) Nodes() []*xmltree.Node {
	if r == nil || len(r.Positions) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(r.Positions))
	for i, p := range r.Positions {
		out[i] = r.forest.Node(p)
	}
	return out
}

// Exec runs every program of the plan against the forest and returns
// the deduplicated answer union in document order. Programs run
// concurrently up to ExecOptions.Parallel, each behind panic isolation
// (a panic in one program fails the request with a typed ErrInternal,
// not the process). The context is polled throughout; a cancelled ctx
// aborts with its error.
func (p *Plan) Exec(ctx context.Context, f *Forest, opts ExecOptions) (*ExecResult, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanExec, start)
	if err := faultExec.Hit(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	per := make([][]int32, len(p.programs))
	errs := make([]error, len(p.programs))
	// Answers may live in kernel scratch until the union copies them
	// out, so kernels go back to the forest only after it.
	if par := parallelism(opts.Parallel, len(p.programs)); par <= 1 {
		// Serial programs share one kernel: its arena keeps every
		// program's answers apart.
		k := f.getKernel()
		defer f.putKernel(k)
		for i, pr := range p.programs {
			per[i], errs[i] = k.join(ctx, pr, true)
			if errs[i] != nil {
				break
			}
		}
	} else {
		kernels := make([]*kernel, len(p.programs))
		defer func() {
			for _, k := range kernels {
				f.putKernel(k)
			}
		}()
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for i, pr := range p.programs {
			if err := ctx.Err(); err != nil {
				break
			}
			kernels[i] = f.getKernel()
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, pr *program, k *kernel) {
				defer wg.Done()
				defer func() { <-sem }()
				// A panic in a worker must become this program's error,
				// never a process crash: indices are disjoint, so the
				// write needs no lock.
				defer guard.Rescue("plan.exec", func(err error) { errs[i] = err })
				per[i], errs[i] = k.join(ctx, pr, true)
			}(i, pr, kernels[i])
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &ExecResult{Positions: f.union(per), forest: f}, nil
}

func parallelism(requested, programs int) int {
	par := requested
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > programs {
		par = programs
	}
	return par
}

// kernel is the structural-join kernel with its scratch: a bitset over
// forest positions for the parent/child joins (clear between joins),
// the per-operator lists, and an arena the lists are carved from.
// Kernels are recycled through the forest, so a warm execution
// allocates no scratch at all.
type kernel struct {
	f     *Forest
	marks []uint64
	lists [][]int32
	arena []int32
	// want is the scratch this execution has asked for so far.
	want int
}

func (f *Forest) getKernel() *kernel {
	f.kmu.Lock()
	defer f.kmu.Unlock()
	if n := len(f.kernels); n > 0 {
		k := f.kernels[n-1]
		f.kernels = f.kernels[:n-1]
		return k
	}
	return &kernel{f: f, marks: make([]uint64, (len(f.tree)+63)/64)}
}

// putKernel hands k back for reuse; nil is ignored. Lists carved from
// the arena must no longer be in use. The bitset is cleared again in
// case a panic interrupted a join.
func (f *Forest) putKernel(k *kernel) {
	if k == nil {
		return
	}
	clear(k.marks)
	clear(k.lists)
	if k.want > cap(k.arena) {
		k.arena = make([]int32, 0, k.want)
	}
	k.arena, k.want = k.arena[:0], 0
	f.kmu.Lock()
	defer f.kmu.Unlock()
	if len(f.kernels) < runtime.GOMAXPROCS(0) {
		f.kernels = append(f.kernels, k)
	}
}

// take carves an empty list of capacity n from the arena. A list the
// arena cannot hold is allocated on its own, and the release grows
// the arena to this execution's total, so a warm kernel never
// allocates.
func (k *kernel) take(n int) []int32 {
	k.want += n
	used := len(k.arena)
	if used+n > cap(k.arena) {
		return make([]int32, 0, n)
	}
	k.arena = k.arena[:used+n]
	return k.arena[used : used : used+n]
}

// candidates returns the candidate positions of a pattern-node tag:
// the forest's posting or root list, or for the Wildcard tag every
// tree root (pinned) or the full position range.
func (k *kernel) candidates(tag string, pinned bool) []int32 {
	if tag != tpq.Wildcard {
		return k.f.candidates(tag, pinned)
	}
	if pinned {
		return k.f.start
	}
	all := k.take(len(k.f.tree))
	for i := range k.f.tree {
		all = append(all, int32(i))
	}
	return all
}

// join runs one program: bottom-up semi-joins over the posting lists
// compute, per pattern node, the positions whose subtree embeds the
// pattern subtree; a top-down pass along the distinguished path then
// selects the output positions. pinRoot restricts the root candidates
// to the tree roots (the compensation pinning); the general entry
// point (Forest.Evaluate) passes the pattern's own root axis semantics
// instead. Every list is ascending. The result may alias the forest or
// the kernel's scratch.
func (k *kernel) join(ctx context.Context, pr *program, pinRoot bool) ([]int32, error) {
	if cap(k.lists) < len(pr.ops) {
		k.lists = make([][]int32, len(pr.ops))
	}
	lists := k.lists[:len(pr.ops)]
	for i := len(pr.ops) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand := k.candidates(pr.ops[i].tag, i == 0 && pinRoot)
		// The first join copies its survivors into scratch; later joins
		// filter that list in place.
		var dst []int32
		for _, c := range pr.ops[i].children {
			if len(cand) == 0 {
				break
			}
			if dst == nil {
				dst = k.take(len(cand))
			}
			cand = k.semiJoin(dst[:0], cand, lists[c], pr.ops[c].axis)
			dst = cand
		}
		lists[i] = cand
	}
	cur := lists[0]
	for _, pos := range pr.path[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = k.downJoin(cur, lists[pos], pr.ops[pos].axis)
	}
	return cur, nil
}

// Evaluate evaluates a general (not root-pinned) pattern over the
// forest with structural joins, honoring the pattern's root axis: a
// Child root must match a tree root, a Descendant root may match
// anywhere. Over an IndexDocument forest the answers equal
// Pattern.Evaluate's. The context is polled once per pattern node and a
// cancelled ctx aborts with its error.
func (f *Forest) Evaluate(ctx context.Context, p *tpq.Pattern) ([]*xmltree.Node, error) {
	if p == nil || p.Root == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := lower("", tpq.SubtreePattern(p.Root, p.Root.Axis, p.Output))
	k := f.getKernel()
	defer f.putKernel(k)
	ps, err := k.join(ctx, pr, pr.ops[0].axis == tpq.Child)
	if err != nil {
		return nil, err
	}
	res := &ExecResult{Positions: f.union([][]int32{ps}), forest: f}
	return res.Nodes(), nil
}

func setBit(marks []uint64, p int32) { marks[p>>6] |= 1 << (p & 63) }

func hasBit(marks []uint64, p int32) bool { return marks[p>>6]&(1<<(p&63)) != 0 }

// semiJoin appends to dst the positions of upper that have a witness
// in lower via the axis: a child (Child) or a proper descendant
// (Descendant). Witnesses never cross trees: a tree root has no
// parent, and (u, end[u]] stays inside u's window. dst may alias upper.
func (k *kernel) semiJoin(dst, upper, lower []int32, axis tpq.Axis) []int32 {
	if len(lower) == 0 {
		return dst
	}
	switch axis {
	case tpq.Child:
		// Mark the parents of lower; keep the marked uppers.
		marks, parent := k.marks, k.f.parent
		for _, l := range lower {
			if q := parent[l]; q >= 0 {
				setBit(marks, q)
			}
		}
		for _, u := range upper {
			if hasBit(marks, u) {
				dst = append(dst, u)
			}
		}
		clear(marks)
	case tpq.Descendant:
		// Merge: the first lower past u witnesses u iff it lies within
		// u's subtree. upper ascends, so the cursor only moves forward.
		end := k.f.end
		j := 0
		for _, u := range upper {
			for j < len(lower) && lower[j] <= u {
				j++
			}
			if j == len(lower) {
				break
			}
			if lower[j] <= end[u] {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// downJoin returns the positions of lower that have a parent (Child) or
// a proper ancestor (Descendant) in upper, in a list from scratch.
func (k *kernel) downJoin(upper, lower []int32, axis tpq.Axis) []int32 {
	if len(upper) == 0 || len(lower) == 0 {
		return nil
	}
	out := k.take(len(lower))
	switch axis {
	case tpq.Child:
		marks, parent := k.marks, k.f.parent
		for _, u := range upper {
			setBit(marks, u)
		}
		for _, l := range lower {
			if q := parent[l]; q >= 0 && hasBit(marks, q) {
				out = append(out, l)
			}
		}
		clear(marks)
	case tpq.Descendant:
		// Merge: cover is the furthest subtree end among the uppers
		// before l. Subtrees nest or are disjoint, so l has an ancestor
		// in upper iff cover reaches it.
		end := k.f.end
		i, cover := 0, int32(-1)
		for _, l := range lower {
			for i < len(upper) && upper[i] < l {
				cover = max(cover, end[upper[i]])
				i++
			}
			if l <= cover {
				out = append(out, l)
			}
		}
	}
	return out
}

// union merges the programs' ascending answer lists with dedup into
// answer order. For an ordered forest that is a k-way merge of the
// positions; otherwise (nested or unordered windows of a shared
// document) the positions are ordered by document node, then window,
// and each node is kept once, at its first window.
func (f *Forest) union(per [][]int32) []int32 {
	total := 0
	for _, ps := range per {
		total += len(ps)
	}
	if total == 0 {
		return nil
	}
	if !f.ordered {
		return f.unionByDocument(per, total)
	}
	out := make([]int32, 0, total)
	if len(per) == 1 {
		return append(out, per[0]...)
	}
	heads := make([]int, len(per))
	for range total {
		next := int32(math.MaxInt32)
		for i, ps := range per {
			if h := heads[i]; h < len(ps) && ps[h] < next {
				next = ps[h]
			}
		}
		if next == math.MaxInt32 {
			break
		}
		out = append(out, next)
		for i, ps := range per {
			if h := heads[i]; h < len(ps) && ps[h] == next {
				heads[i]++
			}
		}
	}
	return out
}

func (f *Forest) unionByDocument(per [][]int32, total int) []int32 {
	keys := make([]uint64, 0, total)
	for _, ps := range per {
		for _, p := range ps {
			t := f.tree[p]
			node := f.trees[t].Root.Index + int(p-f.start[t])
			keys = append(keys, uint64(node)<<32|uint64(p))
		}
	}
	slices.Sort(keys)
	out := make([]int32, 0, total)
	last := uint64(math.MaxUint64)
	for _, key := range keys {
		if key>>32 != last {
			last = key >> 32
			out = append(out, int32(uint32(key)))
		}
	}
	return out
}

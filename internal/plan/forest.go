package plan

import (
	"context"
	"fmt"
	"math"
	"sync"

	"qav/internal/obs"
	"qav/internal/xmltree"
)

// Tree is one member of an indexed forest: the node the compensation
// queries are pinned to, plus the document that backs its storage. For
// a shipped forest (viewstore) every tree is a standalone document and
// Root == Doc.Root; for in-document answering every tree is a window of
// one shared document and Root is a materialized view node.
type Tree struct {
	Doc  *xmltree.Document
	Root *xmltree.Node
}

// Forest is the execution-side index of a materialized view forest,
// built once per forest and immutable afterwards. Programs compiled by
// Compile execute against it; see Plan.Exec.
//
// The index is a set of pointer-free int32 columns over global forest
// positions: every tree's window occupies a contiguous run of
// positions in (tree, preorder) order, so a node's proper descendants
// are exactly the positions (pos, end[pos]] and every structural join
// is integer work on sorted position lists. Nodes of a shared document
// that fall in several (nested) view windows get one position per
// window, so joins confined to one window always see its full
// contents.
type Forest struct {
	trees []Tree
	// start[t] is the position of tree t's root; ascending, and the
	// root candidates of a wildcard-rooted program.
	start []int32

	// Per-position columns.
	tree   []int32 // the owning tree
	parent []int32 // the in-window parent; -1 for a tree root
	end    []int32 // the last position of the node's subtree
	path   []int32 // index into paths

	// paths is the table of distinct root-to-node tag paths, rendered
	// as Node.Path renders them ("/a/b"). Paths run from the document
	// root, so a window of a shared document carries its ancestors'
	// tags.
	paths []string

	// tagIDs numbers the distinct tags; postings[id] lists the tag's
	// positions ascending and roots[id] the tree roots carrying it.
	tagIDs   map[string]int32
	postings [][]int32
	roots    [][]int32

	// shared marks forests whose trees are windows of one document;
	// answers are then returned in global document order rather than
	// (tree, preorder) order.
	shared bool
	// ordered reports that position order is answer order and that no
	// document node has two positions: always for a shipped forest,
	// and for a shared one whose windows are disjoint and ascending.
	// Otherwise the answer union sorts and deduplicates by document
	// node (see Forest.union).
	ordered bool

	kmu sync.Mutex
	// kernels holds idle join scratch (see kernel) for the next
	// executions; at most GOMAXPROCS are kept.
	// guarded by kmu
	kernels []*kernel
}

// Trees returns the number of trees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// Size returns the total number of indexed nodes (counting a shared
// node once per window containing it).
func (f *Forest) Size() int { return len(f.tree) }

// Cardinality returns the number of occurrences of tag in the forest.
func (f *Forest) Cardinality(tag string) int {
	if id, ok := f.tagIDs[tag]; ok {
		return len(f.postings[id])
	}
	return 0
}

// Shared reports whether the forest's trees are windows of one shared
// document (see IndexSubtrees).
func (f *Forest) Shared() bool { return f.shared }

// Node returns the document node at a forest position.
func (f *Forest) Node(pos int32) *xmltree.Node {
	t := f.tree[pos]
	tr := f.trees[t]
	return tr.Doc.Window(tr.Root)[pos-f.start[t]]
}

// Path returns the root-to-node tag path of the node at a forest
// position — Node(pos).Path(), read from the path table.
func (f *Forest) Path(pos int32) string { return f.paths[f.path[pos]] }

// IndexForest indexes a shipped forest of standalone trees — the
// viewstore.Materialized layout, where each view answer is its own
// document. Indexing walks every node, so the context is polled once
// per tree and a cancelled ctx aborts with its error.
func IndexForest(ctx context.Context, forest []*xmltree.Document) (*Forest, error) {
	trees := make([]Tree, 0, len(forest))
	for _, d := range forest {
		if d == nil || d.Root == nil {
			continue
		}
		trees = append(trees, Tree{Doc: d, Root: d.Root})
	}
	return indexTrees(ctx, trees, false)
}

// IndexSubtrees indexes a view materialization that lives inside one
// document: each view node's subtree window becomes a tree. Windows may
// nest or overlap (a view like //a//a matches along a chain), so a
// document node is indexed once per window containing it — exactly the
// per-view-node visibility the naive evaluator has. The context is
// polled once per window.
func IndexSubtrees(ctx context.Context, d *xmltree.Document, viewNodes []*xmltree.Node) (*Forest, error) {
	trees := make([]Tree, 0, len(viewNodes))
	for _, n := range viewNodes {
		if n == nil {
			continue
		}
		trees = append(trees, Tree{Doc: d, Root: n})
	}
	return indexTrees(ctx, trees, true)
}

// IndexDocument indexes one whole document as a single-tree forest —
// the degenerate case Forest.Evaluate answers general (not root-pinned)
// patterns over.
func IndexDocument(ctx context.Context, d *xmltree.Document) (*Forest, error) {
	if d == nil || d.Root == nil {
		return indexTrees(ctx, nil, true)
	}
	return indexTrees(ctx, []Tree{{Doc: d, Root: d.Root}}, true)
}

func indexTrees(ctx context.Context, trees []Tree, shared bool) (*Forest, error) {
	sp := obs.SpanFrom(ctx)
	start := sp.Start()
	defer sp.Observe(obs.StagePlanIndex, start)
	total := 0
	for _, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total += len(t.Doc.Window(t.Root))
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("plan: forest of %d nodes exceeds the position space", total)
	}
	f := &Forest{
		trees:   trees,
		start:   make([]int32, len(trees)),
		tree:    make([]int32, total),
		parent:  make([]int32, total),
		end:     make([]int32, total),
		path:    make([]int32, total),
		tagIDs:  make(map[string]int32),
		shared:  shared,
		ordered: true,
	}
	ix := indexer{f: f, tag: make([]int32, total), pathIDs: make(map[uint64]int32)}
	pos, prevEnd := int32(0), -1
	for ti, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		window := t.Doc.Window(t.Root)
		base := t.Root.Index
		if shared && base <= prevEnd {
			f.ordered = false
		}
		prevEnd = t.Root.SubtreeEnd()
		f.start[ti] = pos
		for k, n := range window {
			p := pos + int32(k)
			id := ix.tagID(n.Tag)
			ix.tag[p] = id
			ix.count[id]++
			f.tree[p] = int32(ti)
			f.end[p] = pos + int32(n.SubtreeEnd()-base)
			if k == 0 {
				f.parent[p] = -1
				f.path[p] = ix.intern(ix.rootParentPath(n), id)
			} else {
				f.parent[p] = pos + int32(n.Parent.Index-base)
				f.path[p] = ix.intern(f.path[f.parent[p]], id)
			}
		}
		pos += int32(len(window))
	}
	f.postings = carve(ix.count, total)
	for p, id := range ix.tag {
		f.postings[id] = append(f.postings[id], int32(p))
	}
	rootCount := make([]int32, len(ix.count))
	for _, s := range f.start {
		rootCount[ix.tag[s]]++
	}
	f.roots = carve(rootCount, len(f.start))
	for _, s := range f.start {
		f.roots[ix.tag[s]] = append(f.roots[ix.tag[s]], s)
	}
	return f, nil
}

// carve splits one backing array of size total into empty lists with
// the given capacities, so filling the lists by append allocates
// nothing more and no list can grow into its neighbour.
func carve(counts []int32, total int) [][]int32 {
	backing := make([]int32, total)
	out := make([][]int32, len(counts))
	off := 0
	for id, c := range counts {
		out[id] = backing[off : off : off+int(c)]
		off += int(c)
	}
	return out
}

// indexer is the build-time state of indexTrees: the per-position tag
// ids and per-tag counts that size the posting lists, and the path
// table's intern map keyed by (parent path id, tag id).
type indexer struct {
	f       *Forest
	tag     []int32
	count   []int32
	tagName []string
	pathIDs map[uint64]int32
}

// tagID numbers a tag, registering it on first sight. Tags seen only
// above the windows of a shared document get an id with an empty
// posting list.
func (ix *indexer) tagID(tag string) int32 {
	id, ok := ix.f.tagIDs[tag]
	if !ok {
		id = int32(len(ix.count))
		ix.f.tagIDs[tag] = id
		ix.count = append(ix.count, 0)
		ix.tagName = append(ix.tagName, tag)
	}
	return id
}

// intern returns the id of the path parent/tag; parent -1 is the empty
// path above a document root.
func (ix *indexer) intern(parent, tagID int32) int32 {
	k := uint64(uint32(parent+1))<<32 | uint64(uint32(tagID))
	if id, ok := ix.pathIDs[k]; ok {
		return id
	}
	s := "/" + ix.tagName[tagID]
	if parent >= 0 {
		s = ix.f.paths[parent] + s
	}
	id := int32(len(ix.f.paths))
	ix.f.paths = append(ix.f.paths, s)
	ix.pathIDs[k] = id
	return id
}

// rootParentPath returns the path id of a tree root's parent: -1 for
// a standalone tree, the document path above the window otherwise.
func (ix *indexer) rootParentPath(root *xmltree.Node) int32 {
	var above []*xmltree.Node
	for a := root.Parent; a != nil; a = a.Parent {
		above = append(above, a)
	}
	parent := int32(-1)
	for i := len(above) - 1; i >= 0; i-- {
		parent = ix.intern(parent, ix.tagID(above[i].Tag))
	}
	return parent
}

// candidates returns the candidate positions of a concrete pattern-node
// tag: its posting list, or only the tree roots carrying it when
// pinned. Callers must not modify the returned list.
func (f *Forest) candidates(tag string, pinned bool) []int32 {
	id, ok := f.tagIDs[tag]
	switch {
	case !ok:
		return nil
	case pinned:
		return f.roots[id]
	default:
		return f.postings[id]
	}
}

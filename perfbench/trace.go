package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanName identifies the boundary a span times. Spans form a fixed
// tree per op: client → router → replica-i (one per attempt).
type spanName uint8

const (
	spanClient spanName = iota
	spanRouter
	spanReplica0 // replica i is spanReplica0 + i
)

func (n spanName) String() string {
	switch n {
	case spanClient:
		return "client"
	case spanRouter:
		return "router"
	default:
		return fmt.Sprintf("replica-%d", int(n-spanReplica0))
	}
}

func (n spanName) parent() string {
	switch n {
	case spanClient:
		return ""
	case spanRouter:
		return spanClient.String()
	default:
		return spanRouter.String()
	}
}

// span is one timed boundary crossing of one client op. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	op         uint32
	name       spanName
	kind       kind // the op's request kind; set on client spans
	start, end int64
}

// tracer keeps every span of a run in memory; write dumps them when
// the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(op uint32, name spanName, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, name: name, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) recordClient(op uint32, k kind, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, name: spanClient, kind: k, start: start, end: end})
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type opKey struct{}

// withOp marks ctx as carrying traced op id.
func withOp(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

// opFrom returns the traced op id ctx carries, if any.
func opFrom(ctx context.Context) (uint32, bool) {
	id, ok := ctx.Value(opKey{}).(uint32)
	return id, ok
}

// opTimes is one op's span tree reduced to the numbers the per-layer
// metrics need, in nanoseconds.
type opTimes struct {
	kind       kind
	client     int64 // client span
	router     int64 // router span
	replica    int64 // union of the replica spans
	routerSelf int64 // router span minus the part its replica spans cover
}

// reduceSpans folds the spans of each op into opTimes. Self time is a
// span's duration minus the union of its children's intervals.
func reduceSpans(spans []span) []opTimes {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	var out []opTimes
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		var ot opTimes
		var children [][2]int64
		var routerSpan [2]int64
		for _, s := range spans[i:j] {
			switch s.name {
			case spanClient:
				ot.client = s.end - s.start
				ot.kind = s.kind
			case spanRouter:
				ot.router = s.end - s.start
				routerSpan = [2]int64{s.start, s.end}
			default:
				children = append(children, [2]int64{s.start, s.end})
			}
		}
		ot.replica = coverage(children, [2]int64{-1 << 62, 1 << 62})
		ot.routerSelf = ot.router - coverage(children, routerSpan)
		out = append(out, ot)
		i = j
	}
	return out
}

// coverage returns how much of window the union of the (start-sorted)
// intervals covers.
func coverage(ivs [][2]int64, window [2]int64) int64 {
	var total, curStart, curEnd int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], window[0]), min(iv[1], window[1])
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeSpans dumps spans as CSV (op, name, parent, start_ns, end_ns).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,name,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.op, s.name, s.name.parent(), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind classifies client requests; latencies are kept per kind.
type kind uint8

const (
	kRewrite kind = iota // POST /v1/rewrite
	kBatch               // POST /v1/rewrite/batch
	kSelect              // GET /v1/views?q=…&k=…
	kAnswer              // POST /v1/answer (stored-view mode)
	numKinds
)

var kindNames = [numKinds]string{"rewrite", "batch", "select", "answer"}

// clients is the number of closed-loop client goroutines: one per core
// of the two-core machines the benchmark targets.
const clients = 2

// outcome is what a checked response says about the work done.
type outcome struct {
	crs     int  // contained rewritings returned (rewrite kinds)
	partial bool // a partial rewriting (budget or deadline)
	answers int  // answers returned (answer kind)
}

// request is one client request of a workload's stream.
type request struct {
	kind   kind
	method string
	target string
	body   []byte
	// want, once verified at set-up, is the body a reply must equal
	// byte for byte; out is that body's outcome. A reply that differs
	// falls back to check.
	want []byte
	out  outcome
	// check verifies a 200 reply against the request's oracle.
	check func(body []byte) (outcome, error)
}

// A stream is a workload's request sequence. Session i is a short run
// of requests one client issues in order (a mediator's
// select-then-answer, or a single rewrite); which client takes which
// session depends on timing, but the sequence itself is fixed by the
// seed.
type stream interface {
	take() []*request
}

// cyclicStream repeats a generated period of sessions.
type cyclicStream struct {
	sessions [][]*request
	next     atomic.Int64
}

func (s *cyclicStream) take() []*request {
	return s.sessions[(s.next.Add(1)-1)%int64(len(s.sessions))]
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// window is what one timed window measured.
type window struct {
	start   int64 // tracer clock at the window's start
	elapsed time.Duration
	ops     int64
	failed  int64
	wrong   int64 // replies that failed their oracle
	// firstWrong describes the first of them.
	firstWrong error
	samples    []sample
	crs        int64
	partials   int64
	answers    int64
	// thinkNs is the clients' own time between a reply and the next
	// request: taking the next session, building the request, and
	// checking the reply.
	thinkNs  int64
	heapPeak uint64
	segGrow  int64 // persistent-segment growth seen by the sampler
	before   counters
	after    counters
	spans    []span
}

// sample is one request's kind, completion time (µs since the window
// opened) and latency (ns, saturating at ~4.3s). Samples are kept
// compact because every request of a run leaves one.
type sample struct {
	endUs uint32
	latNs uint32
	kind  kind
}

// samplesPerClientSecond sizes each client's sample buffer before the
// window opens — well above today's rate — so that recording does not
// grow the heap the window measures.
const samplesPerClientSecond = 40000

// errWrongOutput marks a reply that failed its oracle.
var errWrongOutput = errors.New("wrong output")

// runWindow drives the stream from the closed-loop clients for d and
// returns what it measured. With traced set every op carries an id
// and its spans are recorded. Wrong outputs are counted and reported
// as an error wrapping errWrongOutput once the window has closed.
func runWindow(st *stack, s stream, tr *tracer, opIDs *atomic.Uint32, d time.Duration, traced bool) (*window, error) {
	runtime.GC()
	w := &window{before: snapshotCounters(st)}
	samplerDone := make(chan struct{})
	samplerExit := make(chan struct{})
	go func() {
		defer close(samplerExit)
		w.heapPeak, w.segGrow = samplePeaks(st, samplerDone)
	}()

	start := time.Now()
	w.start = tr.now()
	deadline := start.Add(d)
	results := make([]*window, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range results {
		res := &window{start: w.start, samples: make([]sample, 0, int(d.Seconds()*samplesPerClientSecond))}
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = runClient(st, s, tr, opIDs, deadline, traced, res)
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	close(samplerDone)
	<-samplerExit
	w.after = snapshotCounters(st)
	if traced {
		w.spans = tr.take()
	}
	var firstWrong error
	for _, r := range results {
		w.ops += r.ops
		w.failed += r.failed
		w.wrong += r.wrong
		w.samples = append(w.samples, r.samples...)
		w.crs += r.crs
		w.partials += r.partials
		w.answers += r.answers
		w.thinkNs += r.thinkNs
		if firstWrong == nil {
			firstWrong = r.firstWrong
		}
	}
	if err := errors.Join(errs...); err != nil {
		return w, err
	}
	if w.wrong > 0 {
		return w, fmt.Errorf("%w: %d of %d replies; the first: %v", errWrongOutput, w.wrong, w.ops, firstWrong)
	}
	return w, nil
}

// runClient is one closed-loop client: it sends a session's requests
// one after another, each only once the previous reply is in, until
// the deadline passes. A reply that fails its oracle is counted and
// the client carries on.
func runClient(st *stack, s stream, tr *tracer, opIDs *atomic.Uint32, deadline time.Time, traced bool, res *window) error {
	rec := &recorder{hdr: make(http.Header)}
	base := context.Background()
	last := tr.now()
	for time.Now().Before(deadline) {
		for _, r := range s.take() {
			ctx := base
			var id uint32
			if traced {
				id = opIDs.Add(1)
				ctx = withOp(base, id)
			}
			req, err := http.NewRequestWithContext(ctx, r.method, r.target, bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			rec.reset()
			t0 := tr.now()
			st.front.ServeHTTP(rec, req)
			t1 := tr.now()
			if traced {
				tr.recordClient(id, r.kind, t0, t1)
			}
			res.thinkNs += t0 - last
			res.samples = append(res.samples, sample{
				endUs: uint32((t1 - res.start) / 1e3),
				latNs: uint32(min(t1-t0, math.MaxUint32)),
				kind:  r.kind,
			})
			res.ops++
			if rec.code != http.StatusOK {
				res.failed++
				last = tr.now()
				continue
			}
			out, err := verifyReply(r, rec.body.Bytes())
			last = tr.now()
			if err != nil {
				res.wrong++
				if res.firstWrong == nil {
					res.firstWrong = fmt.Errorf("%s %s %s: %v", r.method, r.target, r.body, err)
				}
				continue
			}
			res.crs += int64(out.crs)
			res.answers += int64(out.answers)
			if out.partial {
				res.partials++
			}
		}
	}
	return nil
}

// verifyReply checks one 200 reply: the byte-identical fast path
// against the verified body, else the request's oracle.
func verifyReply(r *request, body []byte) (outcome, error) {
	if r.want != nil && bytes.Equal(body, r.want) {
		return r.out, nil
	}
	if r.check == nil {
		return outcome{}, fmt.Errorf("reply differs from the verified reply (%d vs %d bytes)", len(body), len(r.want))
	}
	return r.check(body)
}

// samplePeaks polls the Go heap (and the persistent segments' sizes) until
// done closes; it returns the peak heap and the summed segment growth.
func samplePeaks(st *stack, done <-chan struct{}) (peak uint64, segGrow int64) {
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	lastSeg := segmentBytes(st)
	for n := 0; ; n++ {
		metrics.Read(ms)
		if v := ms[0].Value.Uint64(); v > peak {
			peak = v
		}
		if n%10 == 0 {
			cur := segmentBytes(st)
			if cur > lastSeg {
				segGrow += cur - lastSeg
			}
			lastSeg = cur
		}
		select {
		case <-done:
			return peak, segGrow
		case <-tick.C:
		}
	}
}

func segmentBytes(st *stack) int64 {
	var n int64
	for _, eng := range st.engines {
		n += eng.Stats().SegmentBytes
	}
	return n
}

// quantile returns the nearest-rank q-quantile of sorted ns and
// whether at least ten samples lie beyond it.
func quantile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := max(0, min(int(math.Ceil(float64(n)*q))-1, n-1))
	return sorted[idx], n-1-idx >= 10
}

// ofKind returns the samples of kind k.
func ofKind(samples []sample, k kind) []sample {
	var out []sample
	for _, s := range samples {
		if s.kind == k {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns the latencies of samples in ns, sorted.
func latencies(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = int64(s.latNs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chunkedQuantile splits the samples, in completion order, into as
// many equal chunks (at most maxChunks) as leave each at least
// minPerChunk samples, and returns the median over chunks of each
// chunk's q-quantile, in ns — a figure a burst of machine noise in one
// part of the window cannot drag. ok reports whether every chunk had
// ten samples beyond its quantile.
func chunkedQuantile(samples []sample, q float64, minPerChunk, maxChunks int) (v float64, chunks int, ok bool) {
	ordered := append([]sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].endUs < ordered[j].endUs })
	chunks = max(1, min(maxChunks, len(ordered)/minPerChunk))
	vals := make([]float64, chunks)
	ok = true
	for c := range vals {
		part := ordered[c*len(ordered)/chunks : (c+1)*len(ordered)/chunks]
		x, enough := quantile(latencies(part), q)
		vals[c], ok = float64(x), ok && enough
	}
	return median(vals), chunks, ok
}

// medianRate splits the window into equal time slices and returns the
// median over slices of the ops completed per second.
func medianRate(w *window, slices int) float64 {
	counts := make([]float64, slices)
	span := w.elapsed.Seconds() / float64(slices)
	for _, s := range w.samples {
		i := int(float64(s.endUs) / 1e6 / span)
		counts[min(max(i, 0), slices-1)]++
	}
	for i := range counts {
		counts[i] /= span
	}
	return median(counts)
}

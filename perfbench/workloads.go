package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qav/internal/engine"
	"qav/internal/rewrite"
	"qav/internal/schema"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/workload"
	"qav/internal/xmltree"
)

// workloadDef is one named traffic mix: its request stream, how its
// replicas are configured, and its set-up and oracle steps.
type workloadDef struct {
	name string
	// primary is the request kind whose latency the end-to-end p50/p99
	// report.
	primary kind
	stream  stream
	// config returns replica i's engine configuration for set-up round
	// boot.
	config func(boot, i int) (engine.Config, error)
	// load sends the set-up traffic to a freshly booted stack; it is
	// part of the timed set-up.
	load func(st *stack) error
	// verify checks the set-up replies against the oracles; untimed.
	verify func(st *stack) error
	// cleanup removes what the workload left on disk.
	cleanup func() error
}

// workloadNames lists the workloads perfbench implements.
var workloadNames = []string{"rewrite_hot", "rewrite_cold", "answer_stored"}

// newWorkload generates the named workload's inputs from seed and
// precomputes its oracles. root is the checkout, under which the
// persistent tier's directories live.
func newWorkload(name string, seed int64, root string) (*workloadDef, error) {
	switch name {
	case "rewrite_hot":
		return newRewriteHot(seed)
	case "rewrite_cold":
		return newRewriteCold(seed, root)
	case "answer_stored":
		return newAnswerStored(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// alphabet is the tag alphabet of the schemaless random patterns.
var alphabet = []string{"a", "b", "c"}

// Pattern sizes of the random (query, view) pairs.
const (
	maxQueryNodes = 12
	maxViewNodes  = 6
)

func rewriteRequest(query, view, schema string) *request {
	body, _ := json.Marshal(struct {
		Query  string `json:"query"`
		View   string `json:"view"`
		Schema string `json:"schema,omitempty"`
	}{query, view, schema})
	return &request{kind: kRewrite, method: http.MethodPost, target: "/v1/rewrite", body: body}
}

// pairKey is the canonical identity of a (query, view, schema) triple:
// two pairs with the same key are one cache entry.
func pairKey(q, v *tpq.Pattern, schema string) string {
	return q.Canonical() + "\x00" + v.Canonical() + "\x00" + schema
}

// respell rebuilds p with every node's children in reverse order: the
// same pattern (same canonical form) spelled with its predicates in
// another order.
func respell(p *tpq.Pattern) *tpq.Pattern {
	out := tpq.New(p.Root.Axis, p.Root.Tag)
	var copyKids func(src, dst *tpq.Node)
	copyKids = func(src, dst *tpq.Node) {
		if src == p.Output {
			out.SetOutput(dst)
		}
		for i := len(src.Children) - 1; i >= 0; i-- {
			c := src.Children[i]
			copyKids(c, dst.AddChild(c.Axis, c.Tag))
		}
	}
	copyKids(p.Root, out.Root)
	out.Reindex()
	return out
}

// ---- rewrite_hot ----------------------------------------------------

const (
	hotPairs     = 512
	hotRespelled = hotPairs / 4
	hotBatchSize = 16
	// hotSessions is the period of the cyclic hot stream.
	hotSessions = 1 << 14
	// hotZipfS is the Zipf exponent of the key popularity.
	hotZipfS = 1.1
)

// hotPair is one distinct (query, view) key of rewrite_hot with its
// spellings and its oracle.
type hotPair struct {
	q, v      *tpq.Pattern
	spellings []*request // one single-rewrite request per spelling
	naive     *tpq.Union
	// accepted holds union texts already verified for this pair; it is
	// filled at set-up and only read during the window.
	accepted map[string]bool
}

func (p *hotPair) check(r rewriteReply) error {
	if p.accepted[r.Union] && !r.Partial {
		return nil
	}
	return checkAgainstNaive(r, p.naive)
}

// hotKeys draws the distinct pairs and re-spells a quarter of them.
func hotKeys(rng *rand.Rand) []*hotPair {
	seen := make(map[string]bool)
	var pairs []*hotPair
	for len(pairs) < hotPairs {
		q := workload.RandomPattern(rng, alphabet, maxQueryNodes)
		v := workload.RandomPattern(rng, alphabet, maxViewNodes)
		k := pairKey(q, v, "")
		if seen[k] {
			continue
		}
		seen[k] = true
		p := &hotPair{q: q, v: v, accepted: make(map[string]bool)}
		p.spellings = []*request{rewriteRequest(q.String(), v.String(), "")}
		pairs = append(pairs, p)
	}
	respelled := 0
	for _, p := range pairs {
		if respelled == hotRespelled {
			break
		}
		if alt := respell(p.q).String(); alt != p.q.String() {
			p.spellings = append(p.spellings, rewriteRequest(alt, p.v.String(), ""))
			respelled++
		}
	}
	return pairs
}

// hotStream draws the Zipf-popular session stream: in every block of 8
// sessions, at a random position, one is a batch of hotBatchSize and
// the other 7 are single rewrites. Fixing the mix per block keeps the
// share of batches from varying with the seed.
func hotStream(rng *rand.Rand, pairs []*hotPair) [][]*request {
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(pairs)-1))
	draw := func() (*hotPair, *request) {
		p := pairs[zipf.Uint64()]
		return p, p.spellings[rng.Intn(len(p.spellings))]
	}
	sessions := make([][]*request, hotSessions)
	batchAt := 0
	for i := range sessions {
		if i%8 == 0 {
			batchAt = i + rng.Intn(8)
		}
		if i != batchAt {
			_, r := draw()
			sessions[i] = []*request{r}
			continue
		}
		items := make([]json.RawMessage, hotBatchSize)
		owners := make([]*hotPair, hotBatchSize)
		for j := range items {
			p, r := draw()
			owners[j], items[j] = p, json.RawMessage(r.body)
		}
		body, _ := json.Marshal(struct {
			Items []json.RawMessage `json:"items"`
		}{items})
		sessions[i] = []*request{{
			kind: kBatch, method: http.MethodPost, target: "/v1/rewrite/batch", body: body,
			check: batchCheck(owners),
		}}
	}
	return sessions
}

func batchCheck(owners []*hotPair) func([]byte) (outcome, error) {
	return func(body []byte) (outcome, error) {
		var r batchReply
		if err := decodeJSON(body, &r); err != nil {
			return outcome{}, err
		}
		if len(r.Items) != len(owners) {
			return outcome{}, fmt.Errorf("%d batch items for %d requested", len(r.Items), len(owners))
		}
		var out outcome
		for i, it := range r.Items {
			if it.Status != http.StatusOK {
				return outcome{}, fmt.Errorf("batch item %d: status %d: %s", i, it.Status, it.Error)
			}
			if err := owners[i].check(it.rewriteReply); err != nil {
				return outcome{}, fmt.Errorf("batch item %d: %w", i, err)
			}
			out.crs += len(it.CRs)
			out.partial = out.partial || it.Partial
		}
		return out, nil
	}
}

func singleCheck(p *hotPair) func([]byte) (outcome, error) {
	return func(body []byte) (outcome, error) {
		var r rewriteReply
		if err := decodeJSON(body, &r); err != nil {
			return outcome{}, err
		}
		if err := p.check(r); err != nil {
			return outcome{}, err
		}
		return outcome{crs: len(r.CRs), partial: r.Partial}, nil
	}
}

func newRewriteHot(seed int64) (*workloadDef, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := hotKeys(rng)
	sessions := hotStream(rng, pairs)
	for _, p := range pairs {
		naive, err := rewrite.NaiveMCR(context.Background(), p.q, p.v)
		if err != nil {
			return nil, fmt.Errorf("naive oracle: %w", err)
		}
		p.naive = naive.Union
		for _, r := range p.spellings {
			r.check = singleCheck(p)
		}
	}
	// Set-up replies, kept between load and verify.
	var warm [][]byte
	return &workloadDef{
		name:    "rewrite_hot",
		primary: kRewrite,
		stream:  &cyclicStream{sessions: sessions},
		config: func(int, int) (engine.Config, error) {
			return qavdConfig("", 0), nil
		},
		load: func(st *stack) error {
			// Every spelling once on each replica, then once through the
			// router: all later lookups hit, whichever replica a batch
			// lands on.
			warm = warm[:0]
			for _, h := range append(append([]http.Handler(nil), st.direct...), st.front) {
				for _, p := range pairs {
					for _, r := range p.spellings {
						body, err := sendOK(h, r)
						if err != nil {
							return err
						}
						warm = append(warm, body)
					}
				}
			}
			return nil
		},
		verify: func(st *stack) error {
			i := 0
			for pass := 0; pass <= len(st.direct); pass++ {
				for _, p := range pairs {
					for _, r := range p.spellings {
						var reply rewriteReply
						if err := decodeJSON(warm[i], &reply); err != nil {
							return err
						}
						if err := checkAgainstNaive(reply, p.naive); err != nil {
							return fmt.Errorf("%w: set-up reply for %s: %v", errWrongOutput, r.body, err)
						}
						p.accepted[reply.Union] = true
						// The router pass comes last: its replies are the
						// ones the window must reproduce.
						r.want, r.out = warm[i], outcome{crs: len(reply.CRs)}
						i++
					}
				}
			}
			return nil
		},
		cleanup: func() error { return nil },
	}, nil
}

// ---- rewrite_cold ---------------------------------------------------

// coldSnapshot is the persistent tier's compaction interval: several
// compactions per run.
const coldSnapshot = 2 * time.Second

// coldStream is the endless cold sequence: canonically distinct pairs,
// 3 in 4 schemaless random pairs and 1 in 4 random pairs valid under
// the auction schema, drawn on demand. Distinctness is kept by a
// fixed-size Bloom filter over the canonical keys: a false positive
// only skips a key (deterministically), and the filter's memory does
// not grow with the run.
type coldStream struct {
	schema *schema.Graph
	text   string // the schema as clients send it
	sc     *rewrite.SchemaContext

	mu   sync.Mutex
	rng  *rand.Rand // guarded by mu
	seen bloom      // guarded by mu
}

func newColdStream(seed int64) *coldStream {
	g := workload.AuctionSchema()
	return &coldStream{
		schema: g,
		text:   g.String(),
		sc:     rewrite.NewSchemaContext(g),
		rng:    rand.New(rand.NewSource(seed)),
		seen:   newBloom(1<<24, 4),
	}
}

func (s *coldStream) take() []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var q, v *tpq.Pattern
		text := ""
		if s.rng.Intn(4) == 0 {
			q = workload.RandomSchemaPattern(s.rng, s.schema, maxQueryNodes)
			v = workload.RandomSchemaPattern(s.rng, s.schema, maxViewNodes)
			text = s.text
		} else {
			q = workload.RandomPattern(s.rng, alphabet, maxQueryNodes)
			v = workload.RandomPattern(s.rng, alphabet, maxViewNodes)
		}
		if !s.seen.add(pairKey(q, v, text)) {
			continue
		}
		r := rewriteRequest(q.String(), v.String(), text)
		r.check = s.oracle(q, v, text != "")
		return []*request{r}
	}
}

// oracle checks a cold reply: against rewrite.NaiveMCR for schemaless
// pairs, against a direct schema rewriting outside the stack otherwise.
func (s *coldStream) oracle(q, v *tpq.Pattern, withSchema bool) func([]byte) (outcome, error) {
	return func(body []byte) (outcome, error) {
		var r rewriteReply
		if err := decodeJSON(body, &r); err != nil {
			return outcome{}, err
		}
		out := outcome{crs: len(r.CRs), partial: r.Partial}
		if withSchema {
			direct, err := s.sc.MCRWithSchemaCtx(context.Background(), q, v)
			if err != nil {
				return outcome{}, err
			}
			return out, checkEqualDirect(r, direct)
		}
		naive, err := rewrite.NaiveMCR(context.Background(), q, v)
		if err != nil {
			return outcome{}, err
		}
		return out, checkAgainstNaive(r, naive.Union)
	}
}

// bloom is a fixed-size Bloom filter over strings.
type bloom struct {
	bits []uint64
	k    uint64
}

func newBloom(bits int, k int) bloom {
	return bloom{bits: make([]uint64, bits/64), k: uint64(k)}
}

// add inserts key and reports whether it was (probably) absent.
func (b bloom) add(key string) bool {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h2 := h1>>33 | 1
	n := uint64(len(b.bits) * 64)
	fresh := false
	for i := uint64(0); i < b.k; i++ {
		bit := (h1 + i*h2) % n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			fresh = true
			b.bits[bit/64] |= 1 << (bit % 64)
		}
	}
	return fresh
}

func newRewriteCold(seed int64, root string) (*workloadDef, error) {
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(tmp, "rewrite_cold-")
	if err != nil {
		return nil, fmt.Errorf("creating the persistent-tier directory: %w", err)
	}
	return &workloadDef{
		name:    "rewrite_cold",
		primary: kRewrite,
		stream:  newColdStream(seed),
		config: func(boot, i int) (engine.Config, error) {
			dir, err := freshDir(base, fmt.Sprintf("boot%d-replica%d", boot, i))
			if err != nil {
				return engine.Config{}, err
			}
			return qavdConfig(dir, coldSnapshot), nil
		},
		load:    func(*stack) error { return nil },
		verify:  func(*stack) error { return nil },
		cleanup: func() error { return os.RemoveAll(base) },
	}, nil
}

// freshDir creates dir/name and insists it is new and empty.
func freshDir(dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	if err := os.Mkdir(p, 0o755); err != nil {
		return "", fmt.Errorf("persistent-tier directory: %w", err)
	}
	return p, nil
}

// ---- answer_stored --------------------------------------------------

// The stored document: a fixed ClinicalTrialsDoc of ~200k nodes. Its
// generator seed is a constant so that answer counts, and with them
// the cost of a session, do not vary with the workload seed; the seed
// drives the catalog and the session stream.
const (
	docSeed       = 2006
	docGroups     = 50
	docTrialsPer  = 1800
	docStatusFrac = 0.25

	catalogViews = 2000
	catalogTags  = 64

	answerSessions = 1 << 12
	selectK        = 16
	// broadEvery: one session in broadEvery answers a broad query.
	broadEvery = 8
)

// storedViews are the views materialized over the document.
var storedViews = []struct{ name, expr string }{
	{"trials", "//Trials"},
	{"trial", "//Trials//Trial"},
}

// answerQuery is one query of the answer_stored mix.
type answerQuery struct {
	query, view string
	broad       bool
}

var answerQueries = []answerQuery{
	{"//Trials[//Status]", "trials", false},
	{"//Trials", "trials", false},
	{"//Trials[Trial/Patient]", "trials", false},
	{"//Trials//Trial[Status]/Patient", "trial", true},
	{"//Trials//Trial/Status", "trial", true},
}

// answerCase is one answerQuery with its requests and oracle.
type answerCase struct {
	answerQuery
	sel, ans *request
	want     []answerItem
}

func clinicalDoc() (*xmltree.Document, error) {
	return workload.ClinicalTrialsDoc(context.Background(), rand.New(rand.NewSource(docSeed)),
		docGroups, docTrialsPer, docStatusFrac)
}

// answerCases builds the requests of every query and computes its
// answers with the naive oracle over the same forests the replicas
// store.
func answerCases(doc *xmltree.Document) ([]*answerCase, error) {
	forests := make(map[string]*viewstore.Materialized)
	for _, sv := range storedViews {
		forests[sv.name] = viewstore.Materialize(tpq.MustParse(sv.expr), doc)
	}
	var cases []*answerCase
	for _, aq := range answerQueries {
		q := tpq.MustParse(aq.query)
		m := forests[aq.view]
		res, err := rewrite.MCR(q, m.Expr, rewrite.Options{})
		if err != nil {
			return nil, err
		}
		want, err := naiveAnswers(context.Background(), res.CRs, m.Forest)
		if err != nil {
			return nil, err
		}
		body, _ := json.Marshal(struct {
			Query    string `json:"query"`
			ViewName string `json:"viewName"`
		}{aq.query, aq.view})
		c := &answerCase{
			answerQuery: aq,
			want:        want,
			sel: &request{kind: kSelect, method: http.MethodGet,
				target: "/v1/views?" + url.Values{"q": {aq.query}, "k": {fmt.Sprint(selectK)}}.Encode()},
			ans: &request{kind: kAnswer, method: http.MethodPost, target: "/v1/answer", body: body},
		}
		view := aq.view
		c.sel.check = func(body []byte) (outcome, error) {
			return outcome{}, checkSelect(body, view)
		}
		c.ans.check = func(body []byte) (outcome, error) {
			return checkAnswers(body, c.want)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// answerStream draws the sessions: select then answer. In every block
// of broadEvery sessions exactly one, at a random position, asks a
// broad query, so the mix does not vary with the seed.
func answerStream(rng *rand.Rand, cases []*answerCase) [][]*request {
	var selective, broad []*answerCase
	for _, c := range cases {
		if c.broad {
			broad = append(broad, c)
		} else {
			selective = append(selective, c)
		}
	}
	sessions := make([][]*request, answerSessions)
	broadAt := 0
	for i := range sessions {
		if i%broadEvery == 0 {
			broadAt = i + rng.Intn(broadEvery)
		}
		pool := selective
		if i == broadAt {
			pool = broad
		}
		c := pool[rng.Intn(len(pool))]
		sessions[i] = []*request{c.sel, c.ans}
	}
	return sessions
}

func registerRequest(name, view, doc string) *request {
	body, _ := json.Marshal(struct {
		Name     string `json:"name"`
		View     string `json:"view"`
		Document string `json:"document"`
	}{name, view, doc})
	return &request{method: http.MethodPost, target: "/v1/views", body: body}
}

func newAnswerStored(seed int64) (*workloadDef, error) {
	doc, err := clinicalDoc()
	if err != nil {
		return nil, err
	}
	cases, err := answerCases(doc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var registrations []*request
	xml := doc.XMLString()
	for _, sv := range storedViews {
		registrations = append(registrations, registerRequest(sv.name, sv.expr, xml))
	}
	for _, cv := range workload.RandomCatalogViews(rng, catalogViews, catalogTags, 4, 0.5) {
		registrations = append(registrations, registerRequest(cv.Name, cv.Expr.String(), "<"+cv.Expr.Root.Tag+"/>"))
	}
	sessions := answerStream(rng, cases)
	// Set-up replies: per case, the router's select and answer, then
	// each replica's answer.
	var warm [][]byte
	return &workloadDef{
		name:    "answer_stored",
		primary: kAnswer,
		stream:  &cyclicStream{sessions: sessions},
		config: func(int, int) (engine.Config, error) {
			return qavdConfig("", 0), nil
		},
		load: func(st *stack) error {
			for _, h := range st.direct {
				for _, r := range registrations {
					if _, err := sendOK(h, r); err != nil {
						return err
					}
				}
			}
			// Warm the rewrite and plan caches and build both replicas'
			// forest indexes.
			warm = warm[:0]
			for _, c := range cases {
				for _, step := range []struct {
					h http.Handler
					r *request
				}{{st.front, c.sel}, {st.front, c.ans}, {st.direct[0], c.ans}, {st.direct[1], c.ans}} {
					body, err := sendOK(step.h, step.r)
					if err != nil {
						return err
					}
					warm = append(warm, body)
				}
			}
			return nil
		},
		verify: func(*stack) error {
			for i, c := range cases {
				replies := warm[4*i : 4*i+4]
				if err := checkSelect(replies[0], c.view); err != nil {
					return fmt.Errorf("%w: set-up select %s: %v", errWrongOutput, c.query, err)
				}
				c.sel.want = replies[0]
				for _, body := range replies[1:] {
					out, err := checkAnswers(body, c.want)
					if err != nil {
						return fmt.Errorf("%w: set-up answer %s: %v", errWrongOutput, c.query, err)
					}
					c.ans.out = out
				}
				c.ans.want = replies[1]
			}
			return nil
		},
		cleanup: func() error { return nil },
	}, nil
}

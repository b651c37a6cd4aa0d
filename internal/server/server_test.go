package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qav/internal/engine"
	"qav/internal/fault"
	"qav/internal/leaktest"
	"qav/internal/limits"
	"qav/internal/workload"
)

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
	}
	return rec, out
}

func TestHealthz(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestRewriteEndpoint(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite",
		`{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["answerable"] != true {
		t.Fatalf("answerable = %v", out["answerable"])
	}
	if !strings.Contains(out["union"].(string), "//Trials//Trial[//Status]") {
		t.Errorf("union = %v", out["union"])
	}
	crs := out["crs"].([]any)
	if len(crs) == 0 {
		t.Fatal("no CRs")
	}
	first := crs[0].(map[string]any)
	if first["compensation"] == "" {
		t.Error("missing compensation")
	}
}

func TestRewriteWithSchemaEndpoint(t *testing.T) {
	h := New()
	body := `{"query":"//Auction[//item]//name","view":"//Auction//person","schema":"root Auctions\nAuctions -> Auction*\nAuction -> open_auction* closed_auction?\nopen_auction -> item bids?\nclosed_auction -> item person? buyer?\nbids -> person+\nbuyer -> person\nperson -> name\nitem -> name\n"}`
	rec, out := post(t, h, "/v1/rewrite", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["union"] != "//Auction//person//name" {
		t.Errorf("union = %v", out["union"])
	}
}

func TestRewriteUnanswerable(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"/b/d","view":"/a/b//c"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if out["answerable"] != false {
		t.Errorf("answerable = %v", out["answerable"])
	}
}

func TestRewriteErrors(t *testing.T) {
	h := New()
	cases := []struct {
		body string
		code int
	}{
		{`{`, http.StatusBadRequest},
		{`{"query":"///","view":"//a"}`, http.StatusUnprocessableEntity},
		{`{"query":"//a","view":"//b","bogus":1}`, http.StatusBadRequest},
		{`{"query":"//a","view":"//b","schema":"not a schema"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		rec, out := post(t, h, "/v1/rewrite", tc.body)
		if rec.Code != tc.code {
			t.Errorf("body %q: status %d, want %d", tc.body, rec.Code, tc.code)
		}
		if out["error"] == nil {
			t.Errorf("body %q: no error field", tc.body)
		}
	}
}

func TestAnswerEndpoint(t *testing.T) {
	h := New()
	body := `{
	  "query": "//Trials[//Status]//Trial/Patient",
	  "view": "//Trials//Trial",
	  "document": "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>"
	}`
	rec, out := post(t, h, "/v1/answer", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	answers := out["answers"].([]any)
	if len(answers) != 1 {
		t.Fatalf("answers = %v", answers)
	}
	a := answers[0].(map[string]any)
	if a["text"] != "John" {
		t.Errorf("answer = %v", a)
	}
	if out["viewNodes"].(float64) != 2 {
		t.Errorf("viewNodes = %v", out["viewNodes"])
	}
	if out["directAnswerCount"].(float64) != 2 {
		t.Errorf("directAnswerCount = %v", out["directAnswerCount"])
	}
}

func TestAnswerUnanswerable(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"/b","view":"/a//c","document":"<a/>"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestContainEndpoint(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/contain", `{"p":"//a/b","q":"//a//b"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if out["pInQ"] != true || out["qInP"] != false {
		t.Errorf("contain = %v", out)
	}
	// Schema-relative: the Figure 2 pair.
	body := `{"p":"//Auction//person//name","q":"//Auction[//item]//name","schema":"root Auctions\nAuctions -> Auction*\nAuction -> open_auction* closed_auction?\nopen_auction -> item bids?\nclosed_auction -> item person? buyer?\nbids -> person+\nbuyer -> person\nperson -> name\nitem -> name\n"}`
	rec, out = post(t, h, "/v1/contain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["pInQ"] != true {
		t.Errorf("S-containment = %v", out)
	}
}

func TestMethodRouting(t *testing.T) {
	h := New()
	req := httptest.NewRequest("GET", "/v1/rewrite", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/rewrite = %d, want 405", rec.Code)
	}
}

func TestCacheStats(t *testing.T) {
	h := New()
	body := `{"query":"//a[b]","view":"//a"}`
	post(t, h, "/v1/rewrite", body)
	post(t, h, "/v1/rewrite", body) // cache hit
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["cacheHits"] < 1 || out["cacheMisses"] < 1 || out["cacheEntries"] < 1 {
		t.Errorf("stats = %v", out)
	}
}

// A body is exactly one JSON object: trailing garbage after it is
// rejected instead of silently ignored, while trailing whitespace is
// fine.
func TestDecodeTrailingGarbage(t *testing.T) {
	h := New()
	valid := `{"query":"//a[b]","view":"//a"}`
	cases := []struct {
		name string
		body string
		code int
	}{
		{"clean", valid, http.StatusOK},
		{"trailing whitespace", valid + "\n  \t", http.StatusOK},
		{"second object", valid + `{"query":"//x","view":"//y"}`, http.StatusBadRequest},
		{"empty second object", valid + `{}`, http.StatusBadRequest},
		{"trailing token", valid + ` true`, http.StatusBadRequest},
		{"trailing text", valid + ` garbage`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, out := post(t, h, "/v1/rewrite", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code != http.StatusOK && out["error"] == nil {
			t.Errorf("%s: no error field", tc.name)
		}
	}
}

// Oversized bodies are refused with 413, not a generic 400.
func TestBodyTooLarge(t *testing.T) {
	h := New()
	body := `{"query":"` + strings.Repeat("a", maxBodyBytes+1) + `","view":"//a"}`
	rec, out := post(t, h, "/v1/rewrite", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	if out["error"] == nil {
		t.Error("no error field")
	}
}

// writeJSON must not write a 200 header (or half a body) when encoding
// fails; the client gets one well-formed error object with a 500.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN()) // NaN has no JSON encoding
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response is not one JSON object: %q", rec.Body.String())
	}
	if out["error"] == nil {
		t.Error("no error field")
	}
}

// Error messages keep their double quotes: JSON escaping handles them,
// so `unknown field "bogus"` must not arrive as 'bogus'.
func TestErrorMessagePreservesQuotes(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//a","view":"//b","bogus":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q lost its quoted field name", msg)
	}
	if strings.Contains(msg, "'bogus'") {
		t.Errorf("error %q had its quotes mangled to apostrophes", msg)
	}
}

// GET /metrics reports per-endpoint request/status/latency counters and
// per-stage pipeline timings after traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	h := New()
	post(t, h, "/v1/rewrite", `{"query":"//a[b]","view":"//a"}`) // 200, cold: stages run
	post(t, h, "/v1/rewrite", `{bad`)                            // 400

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Endpoints map[string]struct {
			Requests int64            `json:"requests"`
			Status   map[string]int64 `json:"status"`
			Latency  struct {
				Count int64 `json:"count"`
			} `json:"latency"`
		} `json:"endpoints"`
		Stages map[string]struct {
			Count   int64 `json:"count"`
			TotalNs int64 `json:"total_ns"`
		} `json:"stages"`
		Cache map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	ep, ok := out.Endpoints["POST /v1/rewrite"]
	if !ok {
		t.Fatalf("no POST /v1/rewrite endpoint section: %s", rec.Body.String())
	}
	if ep.Requests != 2 || ep.Status["2xx"] != 1 || ep.Status["4xx"] != 1 {
		t.Errorf("rewrite endpoint = %+v", ep)
	}
	if ep.Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", ep.Latency.Count)
	}
	for _, st := range []string{"parse", "enumerate", "buildcr", "contain"} {
		if out.Stages[st].Count == 0 || out.Stages[st].TotalNs == 0 {
			t.Errorf("stage %s not recorded: %+v", st, out.Stages[st])
		}
	}
	if out.Cache["misses"] != 1 {
		t.Errorf("cache = %v", out.Cache)
	}
}

// GET /v1/slowlog returns queries over the threshold with their stage
// breakdown, newest first.
func TestSlowLogEndpoint(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 16, SlowQueryThreshold: time.Nanosecond})
	h := NewWith(eng)
	post(t, h, "/v1/rewrite", `{"query":"//a[b]","view":"//a"}`) // any miss exceeds 1ns

	req := httptest.NewRequest("GET", "/v1/slowlog", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Total   int64 `json:"total"`
		Entries []struct {
			Query      string           `json:"query"`
			View       string           `json:"view"`
			DurationNs int64            `json:"duration_ns"`
			StageNs    map[string]int64 `json:"stage_ns"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 1 || len(out.Entries) != 1 {
		t.Fatalf("slowlog = %s", rec.Body.String())
	}
	// The log stores canonical forms so identical queries collate
	// regardless of how the client spelled them.
	e := out.Entries[0]
	if e.Query == "" || e.View == "" || e.DurationNs <= 0 {
		t.Errorf("entry = %+v", e)
	}
	if len(e.StageNs) == 0 {
		t.Error("entry has no stage breakdown")
	}
}

// The handler must be safe under concurrent requests (shared cache).
func TestConcurrentRequests(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	queries := []string{"//a[b]", "//a[c]", "//a//b", "//x/y"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(w+i)%len(queries)]
				body := `{"query":"` + q + `","view":"//a"}`
				req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d for %s", rec.Code, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A handler panic becomes a clean 500 with a JSON error body, the stack
// lands in the slow-query log, and the server keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	eng := engine.New(engine.Config{})
	h := NewWith(eng)
	defer fault.Disable()
	if err := fault.Enable(&fault.Plan{Seed: 21, Injections: []fault.Injection{
		{Point: "server.handler", Action: fault.ActPanic},
	}}); err != nil {
		t.Fatal(err)
	}
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//a","view":"//a"}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if out["error"] == nil {
		t.Fatal("500 without a JSON error body")
	}
	slow := eng.SlowLog().Snapshot()
	if len(slow.Entries) == 0 || slow.Entries[0].Stack == "" {
		t.Fatalf("panic stack not recorded in the slow log: %+v", slow.Entries)
	}
	// The server survives: the same request succeeds once disarmed.
	fault.Disable()
	rec, _ = post(t, h, "/v1/rewrite", `{"query":"//a","view":"//a"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", rec.Code)
	}
}

// Saturation surfaces as 429 + Retry-After, the shed counter appears in
// GET /metrics, and in-flight requests complete normally.
func TestSaturationSheds429(t *testing.T) {
	eng := engine.New(engine.Config{Gate: limits.New(limits.Config{MaxInFlight: 1, MaxQueue: 0})})
	h := NewWith(eng)
	defer fault.Disable()
	if err := fault.Enable(&fault.Plan{Seed: 22, Injections: []fault.Injection{
		{Point: "engine.compute", Action: fault.ActDelay, Delay: 300 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(`{"query":"//a[b]//c","view":"//a//c"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		first <- rec
	}()
	deadline := time.Now().Add(2 * time.Second)
	for eng.MetricsSnapshot().Gate.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the gate")
		}
		time.Sleep(time.Millisecond)
	}
	rec, out := post(t, h, "/v1/rewrite", `{"query":"//x[y]//z","view":"//x//z"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", rec.Code, out)
	}
	// The header must parse as a positive integer: Retry-After: 0 would
	// invite an immediate retry stampede from well-behaved clients.
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("admitted request status = %d, want 200", rec.Code)
	}
	snap := eng.MetricsSnapshot()
	if snap.Gate == nil || snap.Gate.Shed != 1 {
		t.Errorf("gate metrics = %+v, want shed=1", snap.Gate)
	}
}

// A deadline expiring mid-enumeration returns HTTP 200 with
// "partial": true and a nonempty sound union.
func TestDeadlinePartialOver200(t *testing.T) {
	eng := engine.New(engine.Config{Timeout: 50 * time.Millisecond})
	h := NewWith(eng)
	// The Figure 8 family at n=12 has 2^12 useful embeddings plus a
	// quadratic redundancy matrix: many seconds uninterrupted.
	q := workload.Fig8Query(12).String()
	v := workload.Fig8View().String()
	rec, out := post(t, h, "/v1/rewrite", `{"query":"`+q+`","view":"`+v+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %v)", rec.Code, out)
	}
	if out["partial"] != true || out["partialReason"] != "deadline" {
		t.Fatalf("partial fields = %v/%v, want true/deadline", out["partial"], out["partialReason"])
	}
	if out["answerable"] != true || out["union"] == "" {
		t.Errorf("partial response has no sound union: %v", out)
	}
}

// A real listener cycle: start the handler under an http.Server, push
// a mix of healthy and deadline-walled requests through it, shut the
// server down, and verify every goroutine the cycle started — HTTP
// conn handlers, engine pipeline workers — is gone.
func TestServerShutdownNoLeak(t *testing.T) {
	defer leaktest.Check(t)()
	eng := engine.New(engine.Config{Timeout: 50 * time.Millisecond})
	srv := httptest.NewServer(NewWith(eng))

	body := `{"query":"` + workload.Fig8Query(12).String() + `","view":"` + workload.Fig8View().String() + `"}`
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/rewrite", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("read: %v", err)
			}
			// 200 is the deadline partial; 504 is the legitimate
			// outcome when the 50ms wall expires before enumeration
			// yields any sound prefix (scheduling pressure under a
			// parallel test run). Either way the workers must drain —
			// the deferred leak check is the real assertion here.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("status = %d, want 200 or 504", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	// Idle keep-alive client connections hold conn goroutines; drop
	// them so the leak check measures the server, not the client pool.
	http.DefaultClient.CloseIdleConnections()
}

func TestRegisterAndAnswerStoredView(t *testing.T) {
	h := New()
	rec, out := post(t, h, "/v1/views", `{
	  "name": "src1",
	  "view": "//Trials//Trial",
	  "document": "<PharmaLab><Trials><Trial><Patient>John</Patient><Status/></Trial><Trial><Patient>Jen</Patient></Trial></Trials></PharmaLab>"
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	if out["trees"].(float64) != 2 {
		t.Fatalf("register: %v", out)
	}

	req := httptest.NewRequest("GET", "/v1/views", nil)
	lrec := httptest.NewRecorder()
	h.ServeHTTP(lrec, req)
	var listed struct {
		Views []string       `json:"views"`
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Views) != 1 || listed.Views[0] != "src1" {
		t.Fatalf("views = %v", listed.Views)
	}
	if listed.Stats["views"].(float64) != 1 || listed.Stats["shards"].(float64) < 1 {
		t.Fatalf("stats = %v", listed.Stats)
	}

	// Ranked candidate selection for a query touching the view's tags.
	req = httptest.NewRequest("GET", "/v1/views?q=//Trials//Trial&k=5", nil)
	lrec = httptest.NewRecorder()
	h.ServeHTTP(lrec, req)
	var sel struct {
		Selected []map[string]any `json:"selected"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &sel); err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) != 1 || sel.Selected[0]["name"] != "src1" {
		t.Fatalf("selected = %v", sel.Selected)
	}

	rec, out = post(t, h, "/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"src1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stored answer: status %d: %s", rec.Code, rec.Body.String())
	}
	answers := out["answers"].([]any)
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	if out["viewTrees"].(float64) != 2 {
		t.Errorf("viewTrees = %v", out["viewTrees"])
	}
	pl, ok := out["plan"].(map[string]any)
	if !ok || pl["programs"].(float64) < 1 {
		t.Fatalf("plan = %v", out["plan"])
	}
	if len(pl) != 1 {
		t.Fatalf("plan = %v, want only programs", pl)
	}

	// Unknown stored view is a semantic rejection, not a crash.
	rec, _ = post(t, h, "/v1/answer", `{"query":"//a","viewName":"nope"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown view: status %d", rec.Code)
	}
}

// There is no plan-backend option: a body naming one carries an
// unknown field, which the strict decoder refuses in both answer modes.
func TestAnswerBackendFieldRejected(t *testing.T) {
	h := New()
	for _, body := range []string{
		`{"query":"//a//c","view":"//a//b","document":"<a><b><c/></b></a>","backend":"structjoin"}`,
		`{"query":"//a//c","viewName":"v","backend":"treedp"}`,
	} {
		rec, out := post(t, h, "/v1/answer", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "backend") {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
		}
	}
}

// GET /v1/views lists every name with the catalog stats; with ?q= it
// serves only the stats and the selection, never the name list.
func TestListViewsReplyShapes(t *testing.T) {
	h := New()
	get := func(target string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if out := get("/v1/views"); keys(out) != "stats,views" || len(out["views"].([]any)) != 0 {
		t.Fatalf("empty listing = %v", out)
	}
	if out := get("/v1/views?q=//a"); keys(out) != "selected,stats" || len(out["selected"].([]any)) != 0 {
		t.Fatalf("empty select = %v", out)
	}
	for _, name := range []string{"v1", "v2", "v3"} {
		if rec, _ := post(t, h, "/v1/views", `{"name":"`+name+`","view":"//a//b","document":"<a><b/></a>"}`); rec.Code != http.StatusOK {
			t.Fatalf("register %s: status %d", name, rec.Code)
		}
	}
	if out := get("/v1/views"); keys(out) != "stats,views" || len(out["views"].([]any)) != 3 {
		t.Fatalf("listing = %v", out)
	}
	out := get("/v1/views?q=//a//b&k=2")
	if keys(out) != "selected,stats" || len(out["selected"].([]any)) != 2 {
		t.Fatalf("select = %v", out)
	}
	if st := out["stats"].(map[string]any); st["views"].(float64) != 3 {
		t.Fatalf("select stats = %v", st)
	}
}

// Every pattern text a handler receives, other than a view being
// registered, parses through the engine's interner: a repeated
// stored-view answer, contain or select with identical text is an
// intern hit and never a second parse.
func TestRepeatedTextHitsInterner(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 16})
	h := NewWith(eng)
	if rec, _ := post(t, h, "/v1/views", `{"name":"src","view":"//Trials//Trial","document":"<Trials><Trial><Patient/></Trial></Trials>"}`); rec.Code != http.StatusOK {
		t.Fatalf("register: status %d", rec.Code)
	}
	for _, tc := range []struct {
		name string
		send func() int
	}{
		{"stored answer", func() int {
			rec, _ := post(t, h, "/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"src"}`)
			return rec.Code
		}},
		{"contain", func() int {
			rec, _ := post(t, h, "/v1/contain", `{"p":"//x/y","q":"//x//y","schema":"root x\nx -> y*\ny ->"}`)
			return rec.Code
		}},
		{"select", func() int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/views?q=//Trials//Trial/Status", nil))
			return rec.Code
		}},
	} {
		if code := tc.send(); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, code)
		}
		before := eng.Stats()
		if code := tc.send(); code != http.StatusOK {
			t.Fatalf("%s repeated: status %d", tc.name, code)
		}
		after := eng.Stats()
		if after.InternHits <= before.InternHits || after.InternMisses != before.InternMisses {
			t.Errorf("%s repeated: intern hits %d -> %d, misses %d -> %d; want more hits and no new misses",
				tc.name, before.InternHits, after.InternHits, before.InternMisses, after.InternMisses)
		}
	}
}

func TestAnswerViewNameExclusive(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"//a","viewName":"x","view":"//a","document":"<a/>"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestRegisterViewValidation(t *testing.T) {
	h := New()
	for _, tc := range []struct{ name, body string }{
		{"empty name", `{"name":"","view":"//a","document":"<a/>"}`},
		{"bad view", `{"name":"x","view":"((","document":"<a/>"}`},
		{"bad document", `{"name":"x","view":"//a","document":"<broken"}`},
	} {
		rec, _ := post(t, h, "/v1/views", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.name, rec.Code)
		}
	}
}

func TestMetricsPlanStages(t *testing.T) {
	h := New()
	rec, _ := post(t, h, "/v1/answer",
		`{"query":"//a//c","view":"//a//b","document":"<a><b><c/></b></a>"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("answer: status %d: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	var snap map[string]any
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	stages := snap["stages"].(map[string]any)
	for _, st := range []string{"plan.compile", "plan.index", "plan.exec"} {
		s, ok := stages[st].(map[string]any)
		if !ok || s["count"].(float64) == 0 {
			t.Errorf("stage %s not recorded: %v", st, stages[st])
		}
	}
	eng := snap["engine"].(map[string]any)
	if eng["planCacheMisses"].(float64) != 1 {
		t.Errorf("planCacheMisses = %v", eng["planCacheMisses"])
	}
}

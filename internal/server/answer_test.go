package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qav/internal/engine"
	"qav/internal/tpq"
	"qav/internal/viewstore"
	"qav/internal/xmltree"
)

// encoderAnswer and encoderAnswerResponse are the /v1/answer body as
// plain structs: what json.Encoder with SetIndent("", "  ") makes of
// them is the wire format writeAnswer must reproduce byte for byte.
type encoderAnswer struct {
	Path string `json:"path"`
	Text string `json:"text,omitempty"`
}

type encoderAnswerResponse struct {
	Union         string          `json:"union"`
	ViewNodes     int             `json:"viewNodes,omitempty"`
	ViewTrees     int             `json:"viewTrees,omitempty"`
	Answers       []encoderAnswer `json:"answers"`
	DirectSize    int             `json:"directAnswerCount,omitempty"`
	Plan          *planJSON       `json:"plan,omitempty"`
	Partial       bool            `json:"partial,omitempty"`
	PartialReason string          `json:"partialReason,omitempty"`
}

func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type answerPairs []encoderAnswer

func (a answerPairs) Len() int                  { return len(a) }
func (a answerPairs) At(i int) (string, string) { return a[i].Path, a[i].Text }

// trickyStrings exercise every escaping rule of encoding/json.
var trickyStrings = []string{
	"",
	"plain",
	"<b>&amp;</b>",
	`say "hi"`,
	`back\slash`,
	"tab\tnew\nline\rcr",
	"bell\aback\bform\fvt\v",
	"nul\x00esc\x1bdel\x7f",
	"line\u2028para\u2029sep",
	"bad\xffutf8\xc3",
	"trunc\xe2\x82",
	"héllo wörld ✓ 𝄞",
	"\xed\xa0\x80", // surrogate half: invalid UTF-8
}

func randomString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func TestAppendJSONStringMatchesEncoder(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json = %s", s, got, want)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		check("a" + string([]byte{byte(c)}) + "z")
	}
	for _, s := range trickyStrings {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		check(randomString(rng))
	}
}

// TestAnswerWriterMatchesEncoder generates responses covering every
// optional field, present and absent, with hostile texts and paths.
func TestAnswerWriterMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		want := encoderAnswerResponse{Union: randomString(rng), Answers: []encoderAnswer{}}
		resp := answerResponse{Union: want.Union}
		if rng.Intn(2) == 0 {
			want.ViewNodes = rng.Intn(1000)
			resp.ViewNodes = want.ViewNodes
		}
		if rng.Intn(2) == 0 {
			want.ViewTrees = rng.Intn(1000)
			resp.ViewTrees = want.ViewTrees
		}
		if rng.Intn(2) == 0 {
			want.DirectSize = rng.Intn(1000)
			resp.DirectSize = want.DirectSize
		}
		if rng.Intn(3) > 0 {
			pj := &planJSON{Programs: rng.Intn(4)}
			want.Plan, resp.Plan = pj, pj
		}
		if rng.Intn(2) == 0 {
			want.Partial, resp.Partial = true, true
		}
		if rng.Intn(2) == 0 {
			want.PartialReason = randomString(rng)
			resp.PartialReason = want.PartialReason
		}
		for j := rng.Intn(4); j > 0; j-- {
			want.Answers = append(want.Answers, encoderAnswer{Path: randomString(rng), Text: randomString(rng)})
		}
		got := appendAnswer(nil, &resp, answerPairs(want.Answers))
		if exp := encoderBytes(t, want); !bytes.Equal(got, exp) {
			t.Fatalf("response %d differs:\n got %s\nwant %s", i, got, exp)
		}
	}
}

// TestAnswerHandlerMatchesEncoder drives both /v1/answer modes end to
// end over trees whose texts need escaping, and checks the served
// bytes against the encoder applied to the nodes' Path() and Text.
func TestAnswerHandlerMatchesEncoder(t *testing.T) {
	eng := engine.New(engine.Config{CacheSize: 16})
	h := NewWith(eng)
	var forest []*xmltree.Document
	for i, s := range trickyStrings {
		trial := xmltree.Build("Trial", xmltree.Build("Patient"), xmltree.Build("Status"))
		trial.Children[0].Text = s
		if i%3 == 0 {
			trial.Children = trial.Children[:1]
		}
		forest = append(forest, xmltree.NewDocument(trial))
	}
	eng.RegisterView("tricky", &viewstore.Materialized{Expr: tpq.MustParse("//Trials//Trial"), Forest: forest})
	ctx := context.Background()
	for _, q := range []string{"//Trials//Trial/Patient", "//Trials//Trial[Status]/Patient", "//Trials//Trial"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", strings.NewReader(`{"query":"`+q+`","viewName":"tricky"}`)))
		sa, err := eng.AnswerStoredView(ctx, tpq.MustParse(q), "tricky")
		if err != nil {
			t.Fatal(err)
		}
		want := encoderAnswerResponse{
			Union:     sa.Result.Union.String(),
			ViewTrees: sa.Trees,
			Answers:   []encoderAnswer{},
			Plan:      buildPlanJSON(sa.Plan),
		}
		for _, n := range sa.Answers() {
			want.Answers = append(want.Answers, encoderAnswer{Path: n.Path(), Text: n.Text})
		}
		if exp := encoderBytes(t, want); !bytes.Equal(rec.Body.Bytes(), exp) {
			t.Fatalf("stored %s:\n got %s\nwant %s", q, rec.Body.Bytes(), exp)
		}
	}

	// Direct mode: the windows of a shared document carry the path
	// above the view node.
	doc := `<Lab><Trials><Trial><Patient>&lt;A&amp;B&gt; "q" \ é</Patient><Status/></Trial>` +
		`<Trial><Patient>	tab
nl</Patient></Trial></Trials></Lab>`
	body, _ := json.Marshal(map[string]string{
		"query": "//Trials//Trial/Patient", "view": "//Trials//Trial", "document": doc,
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body)))
	d, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.AnswerDoc(ctx, engine.Request{Query: tpq.MustParse("//Trials//Trial/Patient"), View: tpq.MustParse("//Trials//Trial")}, d)
	if err != nil {
		t.Fatal(err)
	}
	want := encoderAnswerResponse{
		Union:      ans.Result.Union.String(),
		ViewNodes:  len(ans.ViewNodes),
		DirectSize: len(ans.Direct),
		Answers:    []encoderAnswer{},
		Plan:       buildPlanJSON(ans.Plan),
	}
	for _, n := range ans.Answers() {
		want.Answers = append(want.Answers, encoderAnswer{Path: n.Path(), Text: n.Text})
	}
	if len(want.Answers) != 2 || want.Answers[0].Path != "/Lab/Trials/Trial/Patient" {
		t.Fatalf("direct answers = %v", want.Answers)
	}
	if exp := encoderBytes(t, want); !bytes.Equal(rec.Body.Bytes(), exp) {
		t.Fatalf("direct:\n got %s\nwant %s", rec.Body.Bytes(), exp)
	}
}

// An answerable query with no matches serves an empty answers array,
// never null, in both modes.
func TestAnswerEmptyIsArray(t *testing.T) {
	h := New()
	const doc = "<PharmaLab><Trials><Trial><Patient>Ann</Patient></Trial></Trials></PharmaLab>"
	const query = "//Trials//Trial[Status]/Patient"
	check := func(mode, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/answer", strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", mode, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), `"answers": []`) {
			t.Fatalf("%s: answers not an empty array: %s", mode, rec.Body.String())
		}
	}
	check("direct", `{"query":"`+query+`","view":"//Trials//Trial","document":"`+doc+`"}`)
	rec, _ := post(t, h, "/v1/views", `{"name":"nostatus","view":"//Trials//Trial","document":"`+doc+`"}`)
	if rec.Code != 200 {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	check("stored", `{"query":"`+query+`","viewName":"nostatus"}`)
}

// Every body qavd serves declares its length: a large answer, a JSON
// document from writeJSON and an error from httpError all carry a
// Content-Length equal to the bytes on the wire and none goes out
// chunked, so the router in front can size its read buffer up front.
func TestResponsesDeclareContentLength(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	defer http.DefaultClient.CloseIdleConnections()
	var doc strings.Builder
	doc.WriteString("<PharmaLab><Trials>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&doc, "<Trial><Patient>p%d</Patient><Status/></Trial>", i)
	}
	doc.WriteString("</Trials></PharmaLab>")
	register, _ := json.Marshal(map[string]string{"name": "big", "view": "//Trials//Trial", "document": doc.String()})
	for _, c := range []struct {
		method, path, body string
		code               int
	}{
		{"POST", "/v1/views", string(register), http.StatusOK},
		{"POST", "/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"big"}`, http.StatusOK},
		{"GET", "/metrics", "", http.StatusOK},
		{"GET", "/healthz", "", http.StatusOK},
		{"POST", "/v1/rewrite", `{"query":`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code {
			t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, resp.StatusCode, c.code, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				c.method, c.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if c.path == "/v1/answer" && len(body) < 16<<10 {
			t.Errorf("answer body is %d bytes; the test wants one far past net/http's chunking threshold", len(body))
		}
	}
}

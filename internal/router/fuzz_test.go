package router

import (
	"encoding/json"
	"testing"
)

// FuzzAffinityKey checks that the router's body decoder never panics
// and is deterministic: the same path and body always produce the same
// routing key, which is what keeps a canonical query on one owner.
func FuzzAffinityKey(f *testing.F) {
	esc := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	const schema = "root Trials\nTrials -> Trial*\nTrial -> Status? Site*\nSite -> Status?\n"
	const doc = `<PharmaLab><Trials><Trial><Patient>John Doe</Patient><Status>Complete</Status></Trial></Trials></PharmaLab>`
	for _, seed := range []struct{ path, body string }{
		{"/v1/rewrite", `{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}`},
		{"/v1/rewrite", `{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial","schema":` + esc(schema) + `}`},
		{"/v1/rewrite", `{"query":"//a[b][c]//d","view":"//a//d"}`},
		{"/v1/rewrite", `{"query":"//a[b]//c","view":"//a//c","recursive":true}`},
		{"/v1/rewrite", rewriteBody},
		{"/v1/rewrite", `{"query":"//a[.//c][b]//c","view":"//a//c"}`},
		{"/v1/rewrite/batch", `{"items":[{"query":"//a[b]//c","view":"//a//c"},{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}]}`},
		{"/v1/contain", `{"p":"//Trials//Trial[Status]","q":"//Trials//Trial","schema":` + esc(schema) + `}`},
		{"/v1/answer", `{"query":"//Trials[//Status]//Trial/Patient","view":"//Trials//Trial","document":` + esc(doc) + `}`},
		{"/v1/answer", `{"query":"//Trials//Trial/Patient","viewName":"src1"}`},
		{"/v1/views", `{"name":"x"}`},
		{"/healthz", ""},
		{"/v1/rewrite", "junk"},
		{"/v1/rewrite", `{"query":"//a[","view":7}`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		k1 := affinityKey(path, body)
		if k2 := affinityKey(path, append([]byte(nil), body...)); k1 != k2 {
			t.Fatalf("affinityKey(%q, %q) not deterministic: %q vs %q", path, body, k1, k2)
		}
	})
}

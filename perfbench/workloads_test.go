package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"qav/internal/engine"
	"qav/internal/tpq"
)

// newTestWorkload builds a workload under a temporary checkout root.
func newTestWorkload(t *testing.T, name string, seed int64, root string) *workloadDef {
	t.Helper()
	w, err := newWorkload(name, seed, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.cleanup(); err != nil {
			t.Error(err)
		}
	})
	return w
}

// streamBytes serializes the first n sessions of w's stream.
func streamBytes(w *workloadDef, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		for _, r := range w.stream.take() {
			b.WriteString(r.method + " " + r.target + "\n")
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			const n = 3000
			a := streamBytes(newTestWorkload(t, name, 7, root), n)
			b := streamBytes(newTestWorkload(t, name, 7, root), n)
			c := streamBytes(newTestWorkload(t, name, 8, root), n)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed produced different request streams")
			}
			if bytes.Equal(a, c) {
				t.Fatal("different seeds produced the same request stream")
			}
		})
	}
}

func parsePair(t *testing.T, body []byte) string {
	t.Helper()
	var in struct{ Query, View, Schema string }
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatal(err)
	}
	return pairKey(tpq.MustParse(in.Query), tpq.MustParse(in.View), in.Schema)
}

func TestColdKeysDistinctAndOutnumberCaches(t *testing.T) {
	w := newTestWorkload(t, "rewrite_cold", 1, t.TempDir())
	cacheSize := qavdConfig("", 0).CacheSize
	n := 4 * replicas * cacheSize
	seen := make(map[string]bool, n)
	schema := 0
	for i := 0; i < n; i++ {
		r := w.stream.take()[0]
		k := parsePair(t, r.body)
		if seen[k] {
			t.Fatalf("key %d repeats a canonically identical pair: %s", i, r.body)
		}
		seen[k] = true
		if bytes.Contains(r.body, []byte(`"schema"`)) {
			schema++
		}
	}
	if frac := float64(schema) / float64(n); frac < 0.2 || frac > 0.3 {
		t.Errorf("schema pairs are %.2f of the stream, want about 1/4", frac)
	}
}

func TestHotKeysFitEachReplicaCache(t *testing.T) {
	w := newTestWorkload(t, "rewrite_hot", 1, t.TempDir())
	spellings := make(map[string]map[string]bool) // canonical key → texts
	batches, sessions := 0, hotSessions
	for i := 0; i < sessions; i++ {
		r := w.stream.take()[0]
		bodies := [][]byte{r.body}
		if r.kind == kBatch {
			batches++
			var b struct{ Items []json.RawMessage }
			if err := json.Unmarshal(r.body, &b); err != nil {
				t.Fatal(err)
			}
			if len(b.Items) != hotBatchSize {
				t.Fatalf("batch of %d items", len(b.Items))
			}
			bodies = bodies[:0]
			for _, it := range b.Items {
				bodies = append(bodies, it)
			}
		}
		for _, body := range bodies {
			k := parsePair(t, body)
			if spellings[k] == nil {
				spellings[k] = make(map[string]bool)
			}
			spellings[k][string(body)] = true
		}
	}
	if got, size := len(spellings), qavdConfig("", 0).CacheSize; got > hotPairs || got > size {
		t.Fatalf("%d distinct keys; want at most %d, within the %d-entry cache", got, hotPairs, size)
	}
	twins := 0
	for _, texts := range spellings {
		if len(texts) > 1 {
			twins++
		}
	}
	if twins == 0 || twins > hotRespelled {
		t.Errorf("%d keys arrive in two spellings, want between 1 and %d", twins, hotRespelled)
	}
	if batches != sessions/8 {
		t.Errorf("%d batches in %d sessions, want exactly 1 in 8", batches, sessions)
	}
}

func TestRespellKeepsCanonicalForm(t *testing.T) {
	p := tpq.MustParse("//a[b][c//d]/e")
	alt := respell(p)
	if alt.String() == p.String() {
		t.Fatalf("respell kept the spelling %s", p)
	}
	if alt.Canonical() != p.Canonical() {
		t.Fatalf("respell changed the pattern: %s vs %s", alt.Canonical(), p.Canonical())
	}
}

func TestAnswerQueriesAnswerableWithStatedMix(t *testing.T) {
	doc, err := clinicalDoc()
	if err != nil {
		t.Fatal(err)
	}
	if n := doc.Size(); n < 150000 || n > 250000 {
		t.Errorf("document has %d nodes, want about 200k", n)
	}
	cases, err := answerCases(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		n := len(c.want)
		t.Logf("%s via %s: %d answers", c.query, c.view, n)
		switch {
		case c.broad && (n < 5000 || n > 20000):
			t.Errorf("broad query %s has %d answers, want about 10k", c.query, n)
		case !c.broad && (n < 10 || n > 100):
			t.Errorf("selective query %s has %d answers, want tens", c.query, n)
		}
	}
	w := newTestWorkload(t, "answer_stored", 1, t.TempDir())
	broad := 0
	for i := 0; i < answerSessions; i++ {
		sess := w.stream.take()
		if len(sess) != 2 || sess[0].kind != kSelect || sess[1].kind != kAnswer {
			t.Fatalf("session %d is not select-then-answer", i)
		}
		if bytes.Contains(sess[1].body, []byte(`"viewName":"trial"`)) {
			broad++
		}
	}
	if broad != answerSessions/broadEvery {
		t.Errorf("%d broad sessions of %d, want exactly 1 in %d", broad, answerSessions, broadEvery)
	}
}

func TestPersistentTierDirectoryIsFreshEveryRun(t *testing.T) {
	root := t.TempDir()
	seen := make(map[string]bool)
	for run := 0; run < 2; run++ {
		w := newTestWorkload(t, "rewrite_cold", 1, root)
		for boot := 0; boot < 2; boot++ {
			for i := 0; i < replicas; i++ {
				cfg, err := w.config(boot, i)
				if err != nil {
					t.Fatal(err)
				}
				if seen[cfg.CacheDir] {
					t.Fatalf("run %d boot %d replica %d reuses %s", run, boot, i, cfg.CacheDir)
				}
				seen[cfg.CacheDir] = true
				entries, err := os.ReadDir(cfg.CacheDir)
				if err != nil || len(entries) != 0 {
					t.Fatalf("%s is not a fresh empty directory (%v, %d entries)", cfg.CacheDir, err, len(entries))
				}
				eng := engine.New(cfg)
				if wb := eng.WarmBootInfo(); !wb.Enabled || wb.Replayed != 0 {
					t.Errorf("boot on %s: %+v, want an enabled tier with nothing replayed", cfg.CacheDir, wb)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.cleanup(); err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadDir(filepath.Join(root, ".bench_build", "tmp"))
		if err != nil || len(left) != 0 {
			t.Fatalf("run %d left %d entries behind (%v)", run, len(left), err)
		}
	}
}

func TestCoverageAndQuantile(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 20}, {30, 40}}
	if got := coverage(ivs, [2]int64{0, 100}); got != 30 {
		t.Errorf("coverage = %d, want 30", got)
	}
	if got := coverage(ivs, [2]int64{15, 35}); got != 10 {
		t.Errorf("windowed coverage = %d, want 10", got)
	}
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if v, ok := quantile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 = %d (reportable %v), want 990 with ten beyond", v, ok)
	}
	if _, ok := quantile(xs[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than ten beyond")
	}
}

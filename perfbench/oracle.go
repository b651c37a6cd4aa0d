package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"qav/internal/rewrite"
	"qav/internal/tpq"
	"qav/internal/xmltree"
)

// The reply shapes the checks decode (the fields they compare).

type rewriteReply struct {
	Answerable bool   `json:"answerable"`
	Union      string `json:"union"`
	CRs        []struct {
		Rewriting string `json:"rewriting"`
	} `json:"crs"`
	Partial bool `json:"partial"`
}

type batchReply struct {
	Items []struct {
		Status int    `json:"status"`
		Error  string `json:"error"`
		rewriteReply
	} `json:"items"`
}

type answerItem struct {
	Path string `json:"path"`
	Text string `json:"text"`
}

type answerReply struct {
	Answers []answerItem `json:"answers"`
	Partial bool         `json:"partial"`
}

type selectReply struct {
	Selected []struct {
		Name string `json:"name"`
	} `json:"selected"`
}

func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}

// servedUnion parses the contained rewritings of a reply.
func servedUnion(r rewriteReply) (*tpq.Union, error) {
	u := &tpq.Union{}
	for _, cr := range r.CRs {
		p, err := tpq.Parse(cr.Rewriting)
		if err != nil {
			return nil, fmt.Errorf("unparsable rewriting %q: %w", cr.Rewriting, err)
		}
		u.Patterns = append(u.Patterns, p)
	}
	if r.Answerable == u.Empty() {
		return nil, fmt.Errorf("answerable=%v with %d rewritings", r.Answerable, len(u.Patterns))
	}
	return u, nil
}

// checkAgainstNaive is the schemaless oracle: a complete reply's union
// must be equivalent to rewrite.NaiveMCR's (disjunct-wise coverage
// both ways); every rewriting of a partial reply must lie within it.
func checkAgainstNaive(r rewriteReply, naive *tpq.Union) error {
	served, err := servedUnion(r)
	if err != nil {
		return err
	}
	if r.Partial {
		if !served.CoveredBy(naive) {
			return fmt.Errorf("partial union %s is not within the naive MCR %s", served, naive)
		}
		return nil
	}
	if !served.SameAs(naive) {
		return fmt.Errorf("union %s is not equivalent to the naive MCR %s", served, naive)
	}
	return nil
}

// checkEqualDirect is the schema oracle: the reply's union must equal
// (as a set of canonical disjuncts) the union of a direct rewrite call
// made outside the serving stack.
func checkEqualDirect(r rewriteReply, direct *rewrite.Result) error {
	served, err := servedUnion(r)
	if err != nil {
		return err
	}
	if r.Partial || direct.Partial {
		return fmt.Errorf("partial schema rewriting (served %v, direct %v)", r.Partial, direct.Partial)
	}
	if a, b := canonicalSet(served), canonicalSet(direct.Union); a != b {
		return fmt.Errorf("union {%s} differs from the direct rewriting {%s}", a, b)
	}
	return nil
}

func canonicalSet(u *tpq.Union) string {
	var parts []string
	if !u.Empty() {
		for _, p := range u.Patterns {
			parts = append(parts, p.Canonical())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " U ")
}

// naiveAnswers is the stored-view oracle: the answers of the query's
// rewriting over the stored forest, evaluated tree by tree with
// rewrite.NaiveAnswerMaterialized, as (path, text) in (tree, preorder)
// order — the order the plan layer returns.
func naiveAnswers(ctx context.Context, crs []*rewrite.ContainedRewriting, forest []*xmltree.Document) ([]answerItem, error) {
	var out []answerItem
	for _, tree := range forest {
		nodes, err := rewrite.NaiveAnswerMaterialized(ctx, crs, tree, []*xmltree.Node{tree.Root})
		if err != nil {
			return nil, err
		}
		for _, n := range nodes {
			out = append(out, answerItem{Path: n.Path(), Text: n.Text})
		}
	}
	return out, nil
}

func checkAnswers(body []byte, want []answerItem) (outcome, error) {
	var r answerReply
	if err := decodeJSON(body, &r); err != nil {
		return outcome{}, err
	}
	if r.Partial {
		return outcome{}, fmt.Errorf("partial answer")
	}
	if len(r.Answers) != len(want) {
		return outcome{}, fmt.Errorf("%d answers, the oracle has %d", len(r.Answers), len(want))
	}
	for i := range want {
		if r.Answers[i] != want[i] {
			return outcome{}, fmt.Errorf("answer %d is %+v, the oracle has %+v", i, r.Answers[i], want[i])
		}
	}
	return outcome{answers: len(want)}, nil
}

func checkSelect(body []byte, view string) error {
	var r selectReply
	if err := decodeJSON(body, &r); err != nil {
		return err
	}
	for _, s := range r.Selected {
		if s.Name == view {
			return nil
		}
	}
	return fmt.Errorf("selected views %+v do not include %q", r.Selected, view)
}

// sendOK issues one request to h outside the timed window and returns
// a copy of the body, insisting on a 200.
func sendOK(h http.Handler, r *request) ([]byte, error) {
	req, err := http.NewRequest(r.method, r.target, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	rec := &recorder{hdr: make(http.Header)}
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", r.method, r.target, rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}
	return bytes.Clone(rec.body.Bytes()), nil
}

package server

import (
	"net/http"
	"strconv"
	"unicode/utf8"

	"qav/internal/bufpool"
	"qav/internal/plan"
)

// answerResponse is the body of POST /v1/answer minus its answers
// array, which writeAnswer renders straight from the plan's forest
// columns. Fields are in wire order; the wire format is exactly what
// json.Encoder with SetIndent("", "  ") makes of
//
//	{union, viewNodes?, viewTrees?, answers: [{path, text?}], directAnswerCount?, plan?, partial?, partialReason?}
//
// where "?" marks an omitempty field.
type answerResponse struct {
	Union      string
	ViewNodes  int
	ViewTrees  int
	DirectSize int
	Plan       *planJSON
	// Partial mirrors rewriteResponse: the answers were produced by a
	// sound but possibly non-maximal rewriting.
	Partial       bool
	PartialReason string
}

// planJSON summarizes the compiled answer plan a request executed: how
// many compensation programs it unions.
type planJSON struct {
	Programs int `json:"programs"`
}

func buildPlanJSON(pl *plan.Plan) *planJSON {
	if pl == nil {
		return nil
	}
	return &planJSON{Programs: pl.Programs()}
}

// answerList is the source of the answers array: each answer's
// root-to-node path and text.
type answerList interface {
	Len() int
	At(i int) (path, text string)
}

// execAnswers reads the answers of a plan execution from its forest:
// the path from the forest's path table, the text from the node.
type execAnswers struct{ *plan.ExecResult }

func (a execAnswers) Len() int { return len(a.Positions) }

func (a execAnswers) At(i int) (string, string) {
	f, p := a.Forest(), a.Positions[i]
	return f.Path(p), f.Node(p).Text
}

// writeAnswer writes a 200 answer response. The body is built in full
// in a pooled buffer before the first byte goes out, like writeJSON's.
func writeAnswer(w http.ResponseWriter, resp *answerResponse, answers answerList) {
	bp := bufpool.Get()
	b := appendAnswer(*bp, resp, answers)
	writeBody(w, http.StatusOK, b)
	bufpool.Put(bp, b)
}

// appendAnswer appends the indented JSON of resp with its answers.
func appendAnswer(b []byte, resp *answerResponse, answers answerList) []byte {
	b = append(b, "{\n  \"union\": "...)
	b = appendJSONString(b, resp.Union)
	if resp.ViewNodes != 0 {
		b = append(b, ",\n  \"viewNodes\": "...)
		b = strconv.AppendInt(b, int64(resp.ViewNodes), 10)
	}
	if resp.ViewTrees != 0 {
		b = append(b, ",\n  \"viewTrees\": "...)
		b = strconv.AppendInt(b, int64(resp.ViewTrees), 10)
	}
	b = append(b, ",\n  \"answers\": ["...)
	n := answers.Len()
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		path, text := answers.At(i)
		b = append(b, "\n    {\n      \"path\": "...)
		b = appendJSONString(b, path)
		if text != "" {
			b = append(b, ",\n      \"text\": "...)
			b = appendJSONString(b, text)
		}
		b = append(b, "\n    }"...)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')
	if resp.DirectSize != 0 {
		b = append(b, ",\n  \"directAnswerCount\": "...)
		b = strconv.AppendInt(b, int64(resp.DirectSize), 10)
	}
	if pj := resp.Plan; pj != nil {
		b = append(b, ",\n  \"plan\": {\n    \"programs\": "...)
		b = strconv.AppendInt(b, int64(pj.Programs), 10)
		b = append(b, "\n  }"...)
	}
	if resp.Partial {
		b = append(b, ",\n  \"partial\": true"...)
	}
	if resp.PartialReason != "" {
		b = append(b, ",\n  \"partialReason\": "...)
		b = appendJSONString(b, resp.PartialReason)
	}
	return append(b, "\n}\n"...)
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes appendJSONString copies verbatim: printable
// ASCII other than the quote, the backslash and the HTML specials.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: <, > and & become \u003c, \u003e
// and \u0026; control characters use the short escapes where JSON has
// one and \u00XX otherwise; invalid UTF-8 becomes \ufffd; and U+2028
// and U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

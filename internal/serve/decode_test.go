package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"
)

// referenceDecode is decodeBody's semantics for a classify body: strict
// encoding/json, an empty body the zero request. It returns the reply
// decodeBody would send a rejected body, or "" on acceptance.
func referenceDecode(body []byte) (ClassifyRequest, string) {
	var req ClassifyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		rec := httptest.NewRecorder()
		writeError(rec, 400, "invalid JSON body: %v", err)
		return ClassifyRequest{}, rec.Body.String()
	}
	return req, ""
}

// checkDecode asserts that decodeClassify and the reference accept or
// reject body together, with DeepEqual requests (the nil-ness of Nodes and
// ExtraSeeds included) or the same 400 reply.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantReply := referenceDecode(body)
	var got ClassifyRequest
	rec := httptest.NewRecorder()
	ok := decodeClassify(rec, httptest.NewRequest("POST", "/", bytes.NewReader(body)), &got)
	switch {
	case ok != (wantReply == ""):
		t.Fatalf("%q: decodeClassify accepted=%v, encoding/json replied %s", body, ok, wantReply)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("%q:\n got %#v\nwant %#v", body, got, want)
	case !ok && (rec.Code != 400 || rec.Body.String() != wantReply):
		t.Fatalf("%q: reply %d %s, want 400 %s", body, rec.Code, rec.Body.String(), wantReply)
	}
}

// classifyDecodeSeeds are the canonical bodies and the edges of the hand
// grammar: each of the latter decodes by hand on one side of it and falls
// back to encoding/json on the other.
var classifyDecodeSeeds = []string{
	`{"nodes":[15,3,1999,0],"top_k":2,"extra_seeds":null,"stream":false}`, // what encoding/json writes
	`{"nodes":[],"top_k":2}`,
	`{"nodes":null,"top_k":2}`,
	`{"top_k":3,"stream":true}`,
	` { "nodes" : [ 1 , 2 ] , "extra_seeds" : { "5" : 1 , "6" : -1 } } `,
	`{"extra_seeds":{}}`,
	`{"nodes":[1],"nodes":[2]}`,
	`{"NODES":[1]}`,
	`{"n\u006fdes":[1]}`,
	`{"nodes":[1e2]}`,
	`{"top_k":-0}`,
	`{"top_k":01}`,
	`{"top_k":9223372036854775808}`,
	`{"top_k":123456789012345678}`,
	`{"top_k":1234567890123456789}`,
	`{"nodes":[1]} trailing`,
	`{"nodes":[1]}{"top_k":2}`,
	`{"extra_seeds":{"é":1}}`,
	`{"extra_seeds":{"1":1,"1":2}}`,
	`{"nodes":[1,]}`,
	`{"top_k":null,"stream":null}`,
	`{"unknown":1}`,
	`{"nodes":[1]`,
	`null`,
	``,
	" \t\r\n",
}

// FuzzClassifyDecode holds the hand decoder against encoding/json: for
// every body both accept or both reject, with DeepEqual requests or the
// same error reply.
func FuzzClassifyDecode(f *testing.F) {
	for _, s := range classifyDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestClassifyDecodeGrammar runs the seeds through the differential check
// and pins which of them the hand parser takes, so a parser that always
// fell back could not pass for a fast one.
func TestClassifyDecodeGrammar(t *testing.T) {
	for _, s := range classifyDecodeSeeds {
		checkDecode(t, []byte(s))
	}
	for _, s := range classifyDecodeSeeds[:6] {
		var req ClassifyRequest
		if !parseClassify([]byte(s), &req) {
			t.Errorf("%q fell back to encoding/json, want the hand parser", s)
		}
	}
	var req ClassifyRequest
	if !parseClassify([]byte(`{"nodes":[]}`), &req) || req.Nodes == nil || len(req.Nodes) != 0 {
		t.Errorf(`"nodes":[] decoded to %#v, want an empty non-nil slice (nil means every node)`, req.Nodes)
	}
}

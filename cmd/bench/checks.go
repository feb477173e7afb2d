package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"factorgraph"
)

// tally counts attempted and failed operations and keeps the first few
// failure descriptions for the report. Each goroutine owns one and the
// workload merges them.
type tally struct {
	attempted, failed int
	problems          []string
}

const maxProblems = 8

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problem(format, args...)
}

// problem records a failed output check that is not an operation.
func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		t.problem("%s", p)
	}
}

var labelKey = []byte(`"label":`)

// scanLabels counts the NodeResults of a non-streaming classify reply and
// reports whether every label is in [0,k). It scans for the "label" keys
// instead of decoding: the check runs inside a closed loop on the processor the
// server uses, and a full decode would cost more than the request.
func scanLabels(body []byte, k int) (results int, ok bool) {
	ok = true
	for {
		i := bytes.Index(body, labelKey)
		if i < 0 {
			return results, ok
		}
		body = body[i+len(labelKey):]
		v, digits := 0, 0
		for digits < len(body) && body[digits] >= '0' && body[digits] <= '9' {
			v = v*10 + int(body[digits]-'0')
			digits++
		}
		if digits == 0 || v >= k {
			ok = false
		}
		results++
	}
}

// checkReply is the per-operation output check, shared by all depths. n and
// k are the graph's node and class counts. It returns "" when the reply is
// what the request asked for.
func checkReply(rq *request, o outcome, n, k int) string {
	if o.status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %.120s", rq.kind, o.status, o.body)
	}
	want := 0
	switch rq.kind {
	case opPoint:
		want = pointNodes
	case opWhatIf:
		want = whatIfNodes
	case opStream:
		want = n
	default:
		return "" // writes: the status is the reply; the final-state check covers the effect
	}
	got, ok := o.results, o.labelsOK // engine depth validated in its sink
	switch {
	case o.wire && rq.kind == opStream:
		got, ok = o.lines, true // a stream is only counted; finalLabels decodes one
	case o.wire:
		got, ok = scanLabels(o.body, k)
	}
	if got != want || !ok {
		return fmt.Sprintf("%s: %d results (want %d), labels in range: %v", rq.kind, got, want, ok)
	}
	return ""
}

// finalLabels streams the full graph once more, untimed, and decodes every
// record: the labels a client sees at the end of the workload.
func finalLabels(is issuer, g *reqGen, n, k int, t *tally) ([]int, error) {
	rq := g.stream()
	rq.keep = true
	t.attempted++
	o, err := is.issue(rq)
	if err != nil {
		t.fail("final stream: %v", err)
		return nil, err
	}
	if o.status != http.StatusOK {
		t.fail("final stream: status %d", o.status)
		return nil, fmt.Errorf("final stream: status %d", o.status)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = factorgraph.Unlabeled
	}
	sc := bufio.NewScanner(bytes.NewReader(o.body))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	lines := 0
	for sc.Scan() {
		var rec struct {
			Node  int `json:"node"`
			Label int `json:"label"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.fail("final stream line %d: %v", lines, err)
			return nil, err
		}
		if rec.Node < 0 || rec.Node >= n || rec.Label < 0 || rec.Label >= k {
			t.fail("final stream line %d: node %d label %d out of range", lines, rec.Node, rec.Label)
			return nil, fmt.Errorf("final stream: record out of range")
		}
		labels[rec.Node] = rec.Label
		lines++
	}
	if lines != n {
		t.fail("final stream: %d lines, want %d", lines, n)
		return nil, fmt.Errorf("final stream: %d lines, want %d", lines, n)
	}
	return labels, nil
}

// minColdAgreement is the share of nodes on which a mutated engine's final
// labels must equal a cold build's. The residual fixed point and the cold
// solve agree to ~1e-6 in belief; the allowance is for argmax near-ties.
const minColdAgreement = 0.999

// checkAgainstCold builds a cold engine from the benchmark's own model of
// the final state — edge list, seeds and the H the served engine used —
// and compares its labels with what the served engine streamed.
func checkAgainstCold(n int, edges [][2]int32, seeds []int, k int, h *factorgraph.Matrix, served []int, t *tally) {
	g, err := factorgraph.NewGraph(n, edges)
	if err != nil {
		t.problem("cold build: %v", err)
		return
	}
	cold, err := factorgraph.NewEngineWithH(g, seeds, k, h, "bench-cold", factorgraph.EngineOptions{Incremental: true})
	if err != nil {
		t.problem("cold build: %v", err)
		return
	}
	defer cold.Close()
	res, err := cold.Classify(factorgraph.Query{})
	if err != nil || len(res) != n {
		t.problem("cold classify: %d results, err %v", len(res), err)
		return
	}
	agree := 0
	for _, r := range res {
		if served[r.Node] == r.Label {
			agree++
		}
	}
	if share := float64(agree) / float64(n); share < minColdAgreement {
		t.problem("final labels agree with a cold build on %.4f of nodes, want ≥ %.3f", share, minColdAgreement)
	}
}

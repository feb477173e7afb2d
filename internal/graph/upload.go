package graph

import (
	"bytes"
	"fmt"

	"factorgraph/internal/labels"
)

// ParseUpload parses an uploaded graph: an edge-list payload (TSV
// "u\tv[\tw]", same format ReadEdgeList accepts) and a seed-labels payload
// ("node\tlabel"). It returns the graph, the length-n seed vector and the
// inferred class count (max label + 1). This is the admission path for
// graphs POSTed to the multi-tenant serving API; the raw bytes are small
// enough to retain for transparent rebuilds after eviction, so parsing must
// be deterministic on the same payload.
//
// The inferred node count may not exceed the payload's byte length, checked
// before anything n-sized is allocated: naming a node costs at least two
// bytes (a digit and a separator), so a larger n means over half the id
// space is named by no edge and no label — rows propagation can never
// reach, which a 13-byte upload could otherwise make 2³¹ of.
func ParseUpload(edges, seedLabels []byte) (*Graph, []int, int, error) {
	if len(bytes.TrimSpace(edges)) == 0 {
		return nil, nil, 0, fmt.Errorf("graph: empty edge-list upload")
	}
	es, ws, n, err := scanEdgeList(bytes.NewReader(edges))
	if err != nil {
		return nil, nil, 0, err
	}
	if n > len(edges)+len(seedLabels) {
		return nil, nil, 0, fmt.Errorf("graph: upload of %d bytes infers %d nodes (max id + 1); node ids must be dense enough that n ≤ the payload size",
			len(edges)+len(seedLabels), n)
	}
	g, err := New(n, es, ws)
	if err != nil {
		return nil, nil, 0, err
	}
	seeds, err := ReadLabels(bytes.NewReader(seedLabels), g.N)
	if err != nil {
		return nil, nil, 0, err
	}
	if labels.NumLabeled(seeds) == 0 {
		return nil, nil, 0, fmt.Errorf("graph: upload has no seed labels")
	}
	return g, seeds, labels.NumClasses(seeds), nil
}

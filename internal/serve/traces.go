package serve

import (
	"net/http"
	"sort"
	"time"

	"factorgraph/internal/telemetry"
)

// This file is the read side of the tracing subsystem: GET /v1/admin/traces
// serves the bounded in-process trace ring (summaries, or one full span
// tree via ?id=<32-hex trace id>, the same id the /metrics exemplars name),
// and GET /v1/admin/tenants serves the per-graph cost report rolled up from
// request-attributed work.

// handleTraces serves GET /v1/admin/traces[?id=]: without ?id the retained
// trace summaries (newest first) plus the sampler and ring configuration;
// with ?id the named trace's full span tree — a 404 means the trace was
// never captured or has been evicted from the ring.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, ok := telemetry.ParseTraceID(idStr)
		if !ok {
			writeError(w, http.StatusBadRequest, "invalid trace id %q (want 32 hex digits)", idStr)
			return
		}
		st, ok := s.rec.traces.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "trace %s is not retained (never sampled, or evicted)", idStr)
			return
		}
		writeJSON(w, http.StatusOK, traceDetail(st))
		return
	}
	snap := s.rec.traces.Snapshot()
	resp := TracesResponse{
		SampleRate: s.rec.sampler.Rate(),
		Capacity:   s.rec.traces.Capacity(),
		Count:      len(snap),
		Traces:     make([]TraceSummary, 0, len(snap)),
	}
	for _, st := range snap {
		resp.Traces = append(resp.Traces, traceSummary(st))
	}
	writeJSON(w, http.StatusOK, resp)
}

// micros renders a duration as the wire's fractional microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func traceSummary(st telemetry.StoredTrace) TraceSummary {
	return TraceSummary{
		TraceID:    st.ID.String(),
		Graph:      st.Graph,
		Kind:       st.Kind,
		Time:       st.Start.UTC().Format(time.RFC3339Nano),
		DurationUs: micros(st.Duration),
		Status:     st.Status,
		Reason:     st.Reason,
		SpanCount:  len(st.Spans),
		Depth:      spanTreeDepth(st.Spans),
		Remote:     !st.RemoteParent.IsZero(),
	}
}

func traceDetail(st telemetry.StoredTrace) TraceDetail {
	d := TraceDetail{
		TraceSummary: traceSummary(st),
		RootSpanID:   st.Root.String(),
		Cost: CostWire{
			Pushes:          st.Cost.Pushes,
			EdgesTraversed:  st.Cost.EdgesTraversed,
			RowsCloned:      st.Cost.RowsCloned,
			FlushSeconds:    st.Cost.FlushSeconds,
			LockWaitSeconds: st.Cost.LockWaitSeconds,
		},
		Spans: make([]SpanWire, 0, len(st.Spans)),
	}
	if !st.RemoteParent.IsZero() {
		d.RemoteParentID = st.RemoteParent.String()
	}
	for _, sp := range st.Spans {
		d.Spans = append(d.Spans, SpanWire{
			Name:       sp.Name,
			SpanID:     sp.ID.String(),
			ParentID:   sp.Parent.String(),
			StartUs:    micros(sp.Start),
			DurationUs: micros(sp.Dur),
		})
	}
	return d
}

// spanTreeDepth is the longest parent chain within the stored tree (the
// root request span counts as depth 1; links leaving the tree — the remote
// parent — do not). A chain longer than the span count means a cycle from
// corrupted input; the walk bails rather than spinning.
func spanTreeDepth(spans []telemetry.Span) int {
	parent := make(map[telemetry.SpanID]telemetry.SpanID, len(spans))
	for _, sp := range spans {
		parent[sp.ID] = sp.Parent
	}
	max := 0
	for _, sp := range spans {
		depth := 0
		for id := sp.ID; ; {
			p, ok := parent[id]
			if !ok || depth > len(spans) {
				break
			}
			depth++
			id = p
		}
		if depth > max {
			max = depth
		}
	}
	return max
}

// handleTenants serves GET /v1/admin/tenants: the per-graph cost report —
// request counts and the request-attributed work (pushes, edges traversed,
// rows cloned, flush and lock-wait time) accumulated since the graph's
// series were created, plus each graph's share of the total work. The
// report iterates snapshots of the live series without resolving, so
// reading it never creates or resurrects a deleted graph's series.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	acc := make(map[string]*TenantCost)
	get := func(graph string) *TenantCost {
		tc, ok := acc[graph]
		if !ok {
			tc = &TenantCost{Graph: graph}
			acc[graph] = tc
		}
		return tc
	}
	s.rec.requests.Each(func(g string, c *telemetry.Counter) { get(g).Requests = c.Value() })
	s.rec.costPushes.Each(func(g string, c *telemetry.Counter) { get(g).Pushes = c.Value() })
	s.rec.costEdges.Each(func(g string, c *telemetry.Counter) { get(g).EdgesTraversed = c.Value() })
	s.rec.costRows.Each(func(g string, c *telemetry.Counter) { get(g).RowsCloned = c.Value() })
	s.rec.costFlush.Each(func(g string, c *telemetry.FloatCounter) { get(g).FlushSeconds = c.Value() })
	s.rec.costLockWait.Each(func(g string, c *telemetry.FloatCounter) { get(g).LockWaitSeconds = c.Value() })

	resp := TenantsResponse{Tenants: make([]TenantCost, 0, len(acc))}
	var totalWork int64
	for _, tc := range acc {
		tc.WorkUnits = tc.Pushes + tc.EdgesTraversed + tc.RowsCloned
		totalWork += tc.WorkUnits
		resp.Tenants = append(resp.Tenants, *tc)
	}
	for i := range resp.Tenants {
		if totalWork > 0 {
			resp.Tenants[i].CostShare = float64(resp.Tenants[i].WorkUnits) / float64(totalWork)
		}
	}
	// Most expensive tenant first; ties (and all-idle reports) by name so
	// the order is stable for scripts.
	sort.Slice(resp.Tenants, func(i, j int) bool {
		if resp.Tenants[i].WorkUnits != resp.Tenants[j].WorkUnits {
			return resp.Tenants[i].WorkUnits > resp.Tenants[j].WorkUnits
		}
		return resp.Tenants[i].Graph < resp.Tenants[j].Graph
	})
	resp.Count = len(resp.Tenants)
	resp.TotalWorkUnits = totalWork
	writeJSON(w, http.StatusOK, resp)
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServe emulates the serving API surface loadgen touches and records
// graph registrations and deletions.
type fakeServe struct {
	mu         sync.Mutex
	registered []string
	deleted    []string
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.registered = append(f.registered, req.Name)
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{}`))
	})
	mux.HandleFunc("DELETE /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deleted = append(f.deleted, r.PathValue("name"))
		f.mu.Unlock()
		_, _ = w.Write([]byte(`{}`))
	})
	mux.HandleFunc("GET /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"nodes":100,"edges":500,"classes":3}`))
	})
	mux.HandleFunc("POST /v1/graphs/{name}/classify", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"count":0,"results":[]}`))
	})
	mux.HandleFunc("PATCH /v1/graphs/{name}/labels", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	mux.HandleFunc("PATCH /v1/graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	return mux
}

func (f *fakeServe) snapshot() (reg, del []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.registered...), append([]string(nil), f.deleted...)
}

func testParams(addr string) params {
	return params{
		addr: addr, graph: "default",
		graphs: 2, graphsNodes: 100, graphsEdges: 500,
		conc: 2, batch: 4, topK: 1,
		duration: 200 * time.Millisecond, warmup: 0,
		out: "", mutateOut: "", seed: 1, repeat: 1,
		patchFrac: 0.1, patchBatch: 1, mutateFrac: 0.1, mutateBatch: 1,
	}
}

// TestMixedTenantCleanupOnAbort is the leak regression test: a mixed-tenant
// run aborted mid-burst (the signal path cancels the context) must still
// delete every graph it registered.
func TestMixedTenantCleanupOnAbort(t *testing.T) {
	f := &fakeServe{}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	p := testParams(srv.URL)
	p.duration = 30 * time.Second // only the abort can end the run in time
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel() // what SIGINT/SIGTERM do in run()
	}()
	done := make(chan error, 1)
	go func() { done <- execute(ctx, p) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("aborted run did not return (workers ignored the context)")
	}
	reg, del := f.snapshot()
	if len(reg) != 2 {
		t.Fatalf("registered %v, want 2 graphs", reg)
	}
	if len(del) != 2 {
		t.Fatalf("aborted run leaked graphs: registered %v, deleted %v", reg, del)
	}
}

// TestMixedTenantCleanupOnError: a failure between registration and the
// measured run (here: a graph whose warm-up classify breaks) must delete
// the graphs that were already admitted.
func TestMixedTenantCleanupOnError(t *testing.T) {
	f := &fakeServe{}
	mux := http.NewServeMux()
	base := f.handler()
	broken := false
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if broken && r.Method == "POST" && strings.HasSuffix(r.URL.Path, "/classify") {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p := testParams(srv.URL)
	broken = true // resolveTarget's warm-up classify fails after registration
	if err := execute(context.Background(), p); err == nil {
		t.Fatal("expected the broken warm-up to fail the run")
	}
	reg, del := f.snapshot()
	if len(reg) == 0 {
		t.Fatal("no graphs registered")
	}
	if len(del) != len(reg) {
		t.Fatalf("error path leaked graphs: registered %v, deleted %v", reg, del)
	}
}

// TestMixedTenantCleanupHappyPath: the normal completion path still
// deletes (and -keep-graphs suppresses it).
func TestMixedTenantCleanupHappyPath(t *testing.T) {
	f := &fakeServe{}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	if err := execute(context.Background(), testParams(srv.URL)); err != nil {
		t.Fatal(err)
	}
	if _, del := f.snapshot(); len(del) != 2 {
		t.Fatalf("completed run deleted %v, want both graphs", del)
	}

	f2 := &fakeServe{}
	srv2 := httptest.NewServer(f2.handler())
	defer srv2.Close()
	p := testParams(srv2.URL)
	p.keepGraphs = true
	if err := execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, del := f2.snapshot(); len(del) != 0 {
		t.Fatalf("-keep-graphs still deleted %v", del)
	}
}

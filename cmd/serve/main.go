// Command serve runs the factorgraph classification service as a
// long-lived, multi-tenant HTTP/JSON server. Graphs live in a registry:
// they are admitted by name (POST /v1/graphs with a synthetic spec, server
// file paths, or an inline upload), their engines are built lazily on
// first use — with concurrent first requests deduplicated into one build —
// and cold engines are evicted LRU under a configurable memory budget and
// rebuilt transparently on the next access.
//
// The single-graph flags pre-register a graph named "default", served at
// /v1/graphs/default/...:
//
//	serve -edges graph.tsv -labels seeds.tsv -k 3 -addr :8080
//	serve -synthetic -n 20000 -m 100000 -k 3 -f 0.05 -addr :8080
//	curl -X POST localhost:8080/v1/graphs/default/classify -d '{"nodes":[1,2]}'
//
// Or start empty and admit graphs over HTTP:
//
//	serve -addr :8080 -mem-budget-mb 2048
//	curl -X POST localhost:8080/v1/graphs -d '{"name":"demo","synthetic":{"n":20000,"m":100000}}'
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/admin/registry,
// GET /v1/admin/build, GET /v1/admin/timeline, GET /v1/admin/slowlog,
// GET /v1/admin/health, GET /v1/admin/traces, GET /v1/admin/tenants,
// POST|GET /v1/graphs, GET|DELETE /v1/graphs/{name},
// POST /v1/graphs/{name}/estimate|classify, GET|PATCH
// /v1/graphs/{name}/labels|edges. See internal/serve for the wire format.
//
// Observability: Prometheus-text metrics at /metrics (on -addr, or on a
// separate -metrics-addr admin listener, which also mounts /debug/pprof;
// -pprof mounts pprof on the main listener too). Logs go through log/slog
// (-log-format text|json, -log-level; debug level adds per-request access
// logs). Non-streaming classify accepts ?debug=1 for a per-stage timing
// breakdown. The flight recorder adds per-graph series to /metrics and a
// timeline ring sampled from them (-timeline-interval, -timeline-samples).
// Distributed tracing: engine-backed requests extract and echo W3C
// traceparent headers; a head sampler (-trace-sample) plus forced capture of
// errors and of requests past the adaptive slow threshold (-slowlog-factor,
// -slowlog-floor) feed the trace ring behind /v1/admin/traces and
// /v1/admin/slowlog (-trace-capacity); latency histograms carry exemplar
// trace ids; the per-tenant cost report is served at /v1/admin/tenants.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/serve"
	"factorgraph/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	edgesPath := flag.String("edges", "", "default graph: edge-list path (TSV: u\\tv[\\tw])")
	labelsPath := flag.String("labels", "", "default graph: seed labels path (TSV: node\\tlabel)")
	k := flag.Int("k", 0, "default graph: number of classes (default: inferred from labels)")
	estimator := flag.String("estimator", "dcer", "default graph: sketch estimator, dcer, dce or mce")
	synthetic := flag.Bool("synthetic", false, "serve a synthetic planted graph as the default graph")
	n := flag.Int("n", 20000, "synthetic: number of nodes")
	m := flag.Int("m", 100000, "synthetic: number of edges")
	skew := flag.Float64("skew", 3, "synthetic: compatibility skew h")
	f := flag.Float64("f", 0.05, "synthetic: labeled fraction")
	seed := flag.Uint64("seed", 1, "synthetic: RNG seed")
	budgetMB := flag.Int64("mem-budget-mb", 0, "engine memory budget in MiB; cold graphs beyond it are evicted LRU (0 = unlimited)")
	flushEvery := flag.Int("flush-every", 256, "NDJSON records between flushes on streaming classify responses")
	residualTol := flag.Float64("residual-tol", 0, "default graph: per-node residual tolerance beliefs are served to (0 = engine default 1e-8)")
	compactFrac := flag.Float64("compact-frac", 0, "default graph: delta-overlay share triggering topology compaction on PATCH /edges (0 = engine default 0.25)")
	asyncCompact := flag.Bool("async-compact", false, "default graph: build fraction-triggered compactions in the background and swap epochs off the mutation path")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug adds per-request access logs)")
	metricsAddr := flag.String("metrics-addr", "", "separate admin listen address for /metrics and /debug/pprof (empty = serve them on -addr)")
	pprofFlag := flag.Bool("pprof", false, "mount /debug/pprof on the main -addr listener (the -metrics-addr listener always has it)")
	timelineInterval := flag.Duration("timeline-interval", 0, "flight recorder: sampling resolution of /v1/admin/timeline (0 = default 10s)")
	timelineSamples := flag.Int("timeline-samples", 0, "flight recorder: ring length per timeline series (0 = default 90)")
	slowFactor := flag.Float64("slowlog-factor", 0, "flight recorder: capture requests slower than this multiple of the tracked p99 (0 = default 3)")
	slowFloor := flag.Duration("slowlog-floor", 0, "flight recorder: hard minimum slow-query threshold, also active during p99 warmup (0 = adaptive only)")
	traceSample := flag.Float64("trace-sample", 0, "tracing: head-sampling fraction of requests captured into /v1/admin/traces (0 = default 0.01, negative = off; errors and slow requests are always captured)")
	traceCapacity := flag.Int("trace-capacity", 0, "tracing: in-process trace ring size behind /v1/admin/traces (0 = default 256)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	// The registry treats zero synthetic parameters as "use the default",
	// which a JSON API needs (omitted and zero are indistinguishable) but a
	// CLI does not: an operator typing -f 0 or -skew 0 means zero, and
	// silently substituting 0.05/3 would serve a different graph than asked
	// for. Reject explicitly-zeroed values instead.
	var flagErr error
	if *synthetic {
		flag.Visit(func(fl *flag.Flag) {
			if (fl.Name == "f" && *f == 0) || (fl.Name == "skew" && *skew == 0) {
				flagErr = fmt.Errorf("-%s 0 is not servable (an engine needs seed labels and a non-degenerate H); omit the flag for the default", fl.Name)
			}
		})
	}
	if flagErr != nil {
		return flagErr
	}

	reg := registry.New(registry.Options{MemoryBudget: *budgetMB << 20})
	srvHandler := serve.NewMulti(reg, serve.Options{
		FlushEvery:         *flushEvery,
		Logger:             logger,
		Pprof:              *pprofFlag,
		TimelineInterval:   *timelineInterval,
		TimelineSamples:    *timelineSamples,
		SlowLogFactor:      *slowFactor,
		SlowLogFloor:       *slowFloor,
		TraceSampleRate:    *traceSample,
		TraceStoreCapacity: *traceCapacity,
	})
	defer srvHandler.Close()

	if spec, ok, err := defaultSpec(*synthetic, *edgesPath, *labelsPath, *k, *n, *m, *skew, *f, *seed, *estimator, *residualTol, *compactFrac, *asyncCompact); err != nil {
		return err
	} else if ok {
		if _, err := reg.Register(defaultGraph, spec); err != nil {
			return err
		}
		// Warm the default graph eagerly so the first query is fast and a
		// broken flag combination fails at boot, not at first request.
		start := time.Now()
		eng, release, err := reg.Acquire(defaultGraph)
		if err != nil {
			return err
		}
		g := eng.Graph()
		est := eng.Estimate()
		logger.Info("default graph ready",
			slog.Duration("build", time.Since(start).Round(time.Millisecond)),
			slog.Int("nodes", g.N), slog.Int("edges", g.M), slog.Int("k", eng.K()),
			slog.String("estimator", est.Method),
			slog.Duration("estimation", est.Runtime.Round(time.Millisecond)),
			slog.Int64("mib", eng.MemoryFootprint()>>20))
		release()
	} else {
		logger.Info("no default graph; admit graphs via POST /v1/graphs")
	}
	if *budgetMB > 0 {
		logger.Info("engine memory budget set", slog.Int64("mib", *budgetMB))
	}

	if *metricsAddr != "" {
		go func() {
			admin := http.NewServeMux()
			admin.Handle("GET /metrics", telemetry.Handler(telemetry.Default()))
			admin.HandleFunc("GET /debug/pprof/", pprof.Index)
			admin.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
			admin.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
			admin.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
			admin.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
			adminSrv := &http.Server{
				Addr:              *metricsAddr,
				Handler:           admin,
				ReadHeaderTimeout: 10 * time.Second,
			}
			logger.Info("admin listener up", slog.String("addr", *metricsAddr))
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           srvHandler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", slog.String("addr", *addr))
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutting down", slog.String("signal", sig.String()))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. Text goes to stderr in slog's key=value form; json emits one JSON
// object per line for log shippers.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("-log-format %q: want text or json", format)
}

// defaultGraph is the name the flag-built graph registers under.
const defaultGraph = "default"

// defaultSpec translates the single-graph flags into a registry spec for
// the "default" graph; ok is false when no default graph was requested.
func defaultSpec(synthetic bool, edgesPath, labelsPath string, k, n, m int, skew, f float64, seed uint64, estimator string, residualTol, compactFrac float64, asyncCompact bool) (registry.Spec, bool, error) {
	opts := factorgraph.EngineOptions{
		Estimator: estimator, ResidualTol: residualTol,
		CompactFraction: compactFrac, AsyncCompact: asyncCompact,
	}
	if synthetic {
		if k != 0 && k < 2 {
			return registry.Spec{}, false, fmt.Errorf("-k must be ≥ 2, got %d", k)
		}
		return registry.Spec{
			Synthetic: &registry.SyntheticSpec{N: n, M: m, Skew: skew, F: f, Seed: seed},
			K:         k,
			Options:   opts,
		}, true, nil
	}
	if edgesPath == "" && labelsPath == "" {
		return registry.Spec{}, false, nil
	}
	if edgesPath == "" || labelsPath == "" {
		return registry.Spec{}, false, fmt.Errorf("need both -edges and -labels (or -synthetic, or neither for an empty registry)")
	}
	return registry.Spec{
		Files:   &registry.FileSpec{Edges: edgesPath, Labels: labelsPath},
		K:       k,
		Options: opts,
	}, true, nil
}

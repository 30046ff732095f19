// Command lan-serve serves k-ANN queries over a trained LAN index via
// HTTP/JSON, with admission control, result caching and Prometheus
// metrics (see the lanserve package).
//
// Usage:
//
//	lan-serve -index aids.lansnap -addr :8080
//	curl -d '{"query":{"labels":["C","O"],"edges":[[0,1]]},"k":5}' localhost:8080/search
//	curl localhost:8080/metrics
//	curl localhost:8080/debug/trace/last
//
// The index file comes from lan-train and carries its database. On
// SIGINT/SIGTERM the server stops accepting work (/readyz turns 503),
// drains in-flight connections and exits within -shutdown-grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/lanserve"
)

// fatal logs one error record and exits (the slog replacement for
// log.Fatal at startup, before the server owns any state to drain).
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		idxPath   = flag.String("index", "", "index snapshot from lan-train")
		workers   = flag.Int("workers", 0, "concurrent searches (default GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth beyond -workers; overflow gets 429")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline ceiling")
		cacheSz   = flag.Int("cache", 1024, "result-cache entries (negative disables)")
		maxK      = flag.Int("max-k", 100, "largest k accepted per request")
		pprofOn   = flag.Bool("pprof", false, "mount /debug/pprof/")
		grace     = flag.Duration("shutdown-grace", 5*time.Second, "drain window after SIGTERM")
		quietLog  = flag.Bool("quiet", false, "suppress per-request error logging")
		traceN    = flag.Int("trace-ring", 8, "per-query traces kept for /debug/trace/last (negative disables tracing)")
		slowQ     = flag.Duration("slow-query", 0, "log the full trace of queries at least this slow (0 disables)")
		writable  = flag.Bool("writable", false, "enable POST /insert and /delete (streaming writes against the served index; needs -store ram)")
		storeTier = flag.String("store", "mmap", "storage tier: mmap (serve off the mapped file, read-only) or ram (materialize it)")
		traceDir  = flag.String("trace-dir", "", "export sampled query traces as JSONL segments into this directory (empty disables)")
		traceRate = flag.Float64("trace-sample", 1.0, "fraction of queries exported to -trace-dir (slow queries always export)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "lan-serve")
	if *idxPath == "" {
		fatal(logger, "need -index")
	}
	if *writable && *storeTier == lan.StoreMMap {
		// Catch the conflict at startup instead of serving an endpoint
		// whose every request would fail with ErrReadOnly.
		fatal(logger, "-writable needs a RAM-resident index; pass -store ram (mmap-backed indexes are read-only)")
	}

	start := time.Now()
	idx, err := lan.OpenSnapshot(*idxPath, lan.Options{Workers: *workers, Store: *storeTier})
	if err != nil {
		fatal(logger, "open index", "err", err.Error())
	}
	defer idx.Close()
	logger.Info("index loaded",
		"graphs", idx.Len(),
		"load_time", time.Since(start).Round(time.Millisecond).String(),
		"gamma_star", idx.GammaStar(),
		"store_tier", *storeTier,
		"epoch", idx.Epoch())

	cfg := lanserve.Config{
		Index:       idx,
		Workers:     *workers,
		QueueDepth:  *queue,
		Timeout:     *timeout,
		CacheSize:   *cacheSz,
		MaxK:        *maxK,
		EnablePprof: *pprofOn,
		TraceRing:   *traceN,
		SlowQuery:   *slowQ,
	}
	if *writable {
		cfg.Writer = idx
	}
	if !*quietLog {
		cfg.Logger = logger
	}
	if *traceDir != "" {
		exp, err := lan.NewTraceExporter(lan.TraceExportConfig{
			Dir:    *traceDir,
			Sample: *traceRate,
			SlowUS: slowQ.Microseconds(),
		})
		if err != nil {
			fatal(logger, "open trace exporter", "err", err.Error())
		}
		// Closed after the server drains, so every submitted trace is
		// flushed before exit.
		defer func() {
			if err := exp.Close(); err != nil {
				//lint:allow slogqid exporter shutdown is not query-scoped
				logger.Warn("trace exporter close", "err", err.Error())
			}
		}()
		cfg.Exporter = exp
		logger.Info("trace export enabled", "trace_dir", *traceDir, "sample", *traceRate)
	}
	srv, err := lanserve.New(cfg)
	if err != nil {
		fatal(logger, "configure server", "err", err.Error())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", "addr", *addr, "err", err.Error())
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The resolved address line is load-bearing: with -addr :0 it is how
	// callers (the serve-smoke driver, scripts) learn the actual port.
	logger.Info(fmt.Sprintf("listening on %s", ln.Addr()), "store_tier", *storeTier, "epoch", idx.Epoch())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(logger, "serve", "err", err.Error())
	case <-ctx.Done():
	}
	logger.Info("shutting down", "grace", grace.String())
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("forced shutdown", "err", err.Error())
		if cerr := httpSrv.Close(); cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
			logger.Error("close", "err", cerr.Error())
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "lan-serve: bye")
}

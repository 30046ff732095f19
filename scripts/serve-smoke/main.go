// Command serve-smoke is the end-to-end smoke check behind `make
// serve-smoke` and the CI "Serve smoke" step. It builds the lan-serve
// binary, prepares a tiny trained index snapshot on disk, boots the
// server on an ephemeral port, exercises /readyz, /search (twice, so the
// second hit must come from the result cache), /metrics (server and
// process-wide obs families alike) and /debug/trace/last, then delivers
// SIGTERM and insists the server drains and exits within 5 seconds.
//
// It exits 0 on success and 1 with a diagnostic on any failure, so it
// works as a CI gate without extra tooling.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/lanio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve-smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("serve-smoke: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "serve-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A tiny index on disk, exactly as lan-train would write it: the
	// snapshot carries its database, so the server needs nothing else.
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 1)
	idx, err := lanio.BuildIndex(db, queries, lanio.BuildParams{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 1})
	if err != nil {
		return fmt.Errorf("building index: %w", err)
	}
	idxPath := filepath.Join(dir, "idx.lansnap")
	if err := idx.SaveSnapshot(idxPath, lan.SnapshotOptions{}); err != nil {
		return err
	}

	bin := filepath.Join(dir, "lan-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lan-serve").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lan-serve: %v\n%s", err, out)
	}

	traceDir := filepath.Join(dir, "traces")
	cmd := exec.Command(bin, "-index", idxPath, "-addr", "127.0.0.1:0",
		"-shutdown-grace", "5s", "-trace-dir", traceDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	defer cmd.Process.Kill() // no-op if the SIGTERM path already reaped it

	// The server logs "listening on 127.0.0.1:<port>" once bound; everything
	// after that is streamed through for the CI log.
	addrRe := regexp.MustCompile(`listening on (\S+:\d+)`)
	addrCh := make(chan string, 1)
	logDone := make(chan struct{})
	// Exits at scanner EOF, when the child process closes its stderr pipe.
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "  [lan-serve] %s\n", line)
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server never reported its listen address")
	}

	if err := checks(base, queries[0]); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must drain and exit cleanly within 5s.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("server did not exit within 5s of SIGTERM")
	}
	<-logDone

	// Shutdown flushed the exporter; the segments on disk must replay
	// through lan-trace into a non-empty offline summary, closing the
	// trace pipeline end to end.
	if err := traceChecks(dir, traceDir); err != nil {
		return err
	}
	// CI persists the exported segments (SERVE_SMOKE_ARTIFACTS names a
	// directory) so a red run's traces survive the temp-dir cleanup.
	if dst := os.Getenv("SERVE_SMOKE_ARTIFACTS"); dst != "" {
		if err := copyDir(traceDir, filepath.Join(dst, "traces")); err != nil {
			return fmt.Errorf("persisting trace artifacts: %w", err)
		}
	}
	return nil
}

// traceChecks builds lan-trace and replays the exported segments: the one
// executed search (the cache hit never reached the engine) must come back
// with its stage spans.
func traceChecks(dir, traceDir string) error {
	bin := filepath.Join(dir, "lan-trace")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lan-trace").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lan-trace: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-dir", traceDir).CombinedOutput()
	if err != nil {
		return fmt.Errorf("lan-trace -dir %s: %v\n%s", traceDir, err, out)
	}
	fmt.Fprintf(os.Stderr, "  [lan-trace] %s\n", strings.ReplaceAll(strings.TrimSpace(string(out)), "\n", "\n  [lan-trace] "))
	for _, want := range []string{"traces: 1", "stages:", "initial", "routing"} {
		if !strings.Contains(string(out), want) {
			return fmt.Errorf("lan-trace summary missing %q:\n%s", want, out)
		}
	}
	return nil
}

// copyDir copies a flat artifact directory (the exporter writes no
// subdirectories).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checks drives the live server through the readiness, search, cache and
// metrics assertions.
func checks(base string, q *graph.Graph) error {
	client := &http.Client{Timeout: 10 * time.Second}

	// Readiness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz never turned 200: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Two identical searches: both succeed, the second is a cache hit.
	q.ID = -1
	body, err := json.Marshal(map[string]interface{}{"query": q, "k": 3})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/search #%d: status %d: %s", i+1, resp.StatusCode, data)
		}
		var sr struct {
			Results []struct {
				ID   int     `json:"id"`
				Dist float64 `json:"dist"`
			} `json:"results"`
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return fmt.Errorf("/search #%d: bad JSON: %v", i+1, err)
		}
		if len(sr.Results) != 3 {
			return fmt.Errorf("/search #%d: %d results; want 3", i+1, len(sr.Results))
		}
		if sr.Cached != (i == 1) {
			return fmt.Errorf("/search #%d: cached = %v", i+1, sr.Cached)
		}
	}

	// Metrics reflect the traffic above; alongside the server's own
	// families, the process-wide engine and runtime families registered by
	// internal/obs must appear in the same exposition.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{
		"lanserve_requests_total 2",
		"lanserve_cache_hits_total 1",
		"lanserve_query_ndc_count 1",       // the cache hit ran no search
		"lanserve_request_seconds_count 2", // but both requests count latency
		"lanserve_query_pruning_rate_count 1",
		"lan_query_searches_total 1",
		"lan_query_ndc_initial_total",
		"lan_query_ndc_routing_total",
		"lan_route_gamma_steps_count",
		"lan_distcache_hits_total",
		"lan_ged_arena_reused_total",
		`lan_ged_ensemble_best_total{member="vj"}`,
		`lan_ged_ensemble_best_total{member="hungarian"}`,
		`lan_ged_ensemble_best_total{member="beam"}`,
		"lan_ranker_inferences_total",
		"lan_ranker_memo_hits_total",
		"lan_process_goroutines",
		"lan_process_uptime_seconds",
		"lan_build_info{",
	} {
		if !strings.Contains(string(data), want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, data)
		}
	}

	// The executed search (and only it — the cache hit never reached the
	// engine) must be in the trace ring, finalized with results and NDC.
	resp, err = client.Get(base + "/debug/trace/last")
	if err != nil {
		return err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/trace/last: status %d: %s", resp.StatusCode, data)
	}
	var traces []struct {
		QueryID string `json:"query_id"`
		Routing string `json:"routing"`
		NDC     int    `json:"ndc"`
		Results int    `json:"results"`
		Steps   []struct {
			Node int `json:"node"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(data, &traces); err != nil {
		return fmt.Errorf("/debug/trace/last: bad JSON: %v\n%s", err, data)
	}
	if len(traces) != 1 {
		return fmt.Errorf("/debug/trace/last: %d traces; want 1 (cache hits record none)", len(traces))
	}
	tr := traces[0]
	if tr.QueryID == "" || tr.Routing != "lan" || tr.NDC <= 0 || tr.Results != 3 || len(tr.Steps) == 0 {
		return fmt.Errorf("/debug/trace/last: incomplete trace: %s", data)
	}
	return nil
}

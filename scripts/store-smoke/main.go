// Command store-smoke is the end-to-end check of the pluggable storage
// tier behind `make store-smoke` and the CI "Store smoke" step. It
// builds a tiny index, writes it as a self-contained binary snapshot,
// boots lan-serve twice on that one file — once with -store mmap, once
// with -store ram — and insists every /search answer (ids and exact
// distances) is identical between the tiers. It also pins the read-only
// contract: the mmap server refuses to start with -writable.
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
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("store-smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("store-smoke: PASS")
}

type searchResult struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

func run() error {
	dir, err := os.MkdirTemp("", "store-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 12, 2)
	idx, err := lan.Build(db, queries[:8], lan.Options{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 6})
	if err != nil {
		return fmt.Errorf("building index: %w", err)
	}
	snapPath := filepath.Join(dir, "idx.lansnap")
	if err := idx.SaveSnapshot(snapPath, lan.SnapshotOptions{}); err != nil {
		return fmt.Errorf("SaveSnapshot: %w", err)
	}

	bin := filepath.Join(dir, "lan-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lan-serve").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lan-serve: %v\n%s", err, out)
	}

	// The read-only contract: a snapshot served off the mapping cannot
	// take writes, and the server says so instead of booting.
	refuse := exec.Command(bin, "-index", snapPath, "-store", "mmap", "-writable", "-addr", "127.0.0.1:0")
	if out, err := refuse.CombinedOutput(); err == nil {
		return fmt.Errorf("-writable with -store mmap was accepted:\n%s", out)
	} else if !strings.Contains(string(out), "read-only") && !strings.Contains(string(out), "-store ram") {
		return fmt.Errorf("-writable with -store mmap refused without naming the fix:\n%s", out)
	}

	// Serve the same snapshot on both tiers and collect every answer.
	answers := make(map[string][][]searchResult, 2)
	for _, store := range []string{"mmap", "ram"} {
		res, err := serveAndSearch(bin, snapPath, store, queries[8:])
		if err != nil {
			return fmt.Errorf("store=%s: %w", store, err)
		}
		answers[store] = res
	}

	for qi := range answers["mmap"] {
		if !reflect.DeepEqual(answers["mmap"][qi], answers["ram"][qi]) {
			return fmt.Errorf("query %d: tiers diverge\nmmap: %v\nram:  %v",
				qi, answers["mmap"][qi], answers["ram"][qi])
		}
	}
	fmt.Printf("store-smoke: %d queries bit-identical across ram and mmap tiers\n", len(answers["mmap"]))
	return nil
}

// serveAndSearch boots lan-serve on the snapshot with the given storage
// tier, answers each query through /search, and shuts the server down.
func serveAndSearch(bin, snapPath, store string, queries []*graph.Graph) ([][]searchResult, error) {
	cmd := exec.Command(bin, "-index", snapPath, "-store", store, "-addr", "127.0.0.1:0", "-shutdown-grace", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	defer cmd.Process.Kill() // no-op if the SIGTERM path already reaped it

	addrRe := regexp.MustCompile(`listening on (\S+:\d+)`)
	addrCh := make(chan string, 1)
	// Exits at scanner EOF, when the child process closes its stderr pipe.
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "  [lan-serve %s] %s\n", store, line)
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
		return nil, fmt.Errorf("server never reported its listen address")
	}

	client := &http.Client{Timeout: 10 * time.Second}
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
			return nil, fmt.Errorf("/readyz never turned 200: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	out := make([][]searchResult, 0, len(queries))
	for qi, q := range queries {
		q.ID = -1
		body, err := json.Marshal(map[string]interface{}{"query": q, "k": 3, "beam": 8})
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/search #%d: status %d: %s", qi, resp.StatusCode, data)
		}
		var sr struct {
			Results []searchResult `json:"results"`
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("/search #%d: bad JSON: %v", qi, err)
		}
		if len(sr.Results) == 0 {
			return nil, fmt.Errorf("/search #%d: no results", qi)
		}
		out = append(out, sr.Results)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return nil, fmt.Errorf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("server did not exit within 5s of SIGTERM")
	}
	return out, nil
}

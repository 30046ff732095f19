// Command mutate-smoke is the write-path soak behind `make mutate-smoke`
// and the CI "Mutate smoke" step. It runs two legs:
//
// In-process, it churns a freshly built index — concurrent searchers,
// a streaming inserter and a streaming deleter — for a few wall-seconds,
// with one snapshot pinned before the churn whose answers must stay
// bit-identical throughout. After the churn it compacts the tombstones and
// re-checks search sanity.
//
// Over HTTP, it boots lan-serve with -writable (scripts/internal/smoke),
// drives POST /insert and /delete, and verifies the epoch advances, the
// result cache is invalidated (epoch-keyed), and the write metric
// families are exposed.
//
// It exits 0 on success and 1 with a diagnostic on any failure, so it
// works as a CI gate without extra tooling.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/scripts/internal/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mutate-smoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mutate-smoke: PASS")
}

func run() error {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 1)
	if err := churnSoak(db, queries); err != nil {
		return fmt.Errorf("churn soak: %w", err)
	}
	if err := serveWrites(db, queries); err != nil {
		return fmt.Errorf("serve writes: %w", err)
	}
	return nil
}

// churnSoak hammers one index with concurrent reads and writes, keeping a
// pre-churn snapshot pinned the whole time.
func churnSoak(db graph.Database, queries []*graph.Graph) error {
	idx, err := lan.Build(db, queries, lan.Options{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 1})
	if err != nil {
		return fmt.Errorf("building index: %w", err)
	}
	defer idx.Close()

	pinned := idx.Snapshot()
	q := queries[0]
	wantRes, wantStats, err := pinned.Search(q, lan.SearchOptions{K: 3, Beam: 10})
	if err != nil {
		return err
	}

	deadline := time.Now().Add(2 * time.Second)
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	wg.Add(1)
	go func() { // streaming inserts
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := idx.Insert(queries[i%len(queries)]); err != nil {
				fail(fmt.Errorf("insert: %w", err))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // streaming deletes over the pre-churn id range
		defer wg.Done()
		for id := 0; id < len(db)/2 && time.Now().Before(deadline); id++ {
			if err := idx.Delete(id); err != nil {
				fail(fmt.Errorf("delete %d: %w", id, err))
				return
			}
		}
	}()
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) { // concurrent searchers, one re-checking the pin
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				qi := queries[(s+i)%len(queries)]
				if s == 0 {
					res, stats, err := pinned.Search(q, lan.SearchOptions{K: 3, Beam: 10})
					if err != nil {
						fail(err)
						return
					}
					if len(res) != len(wantRes) || stats.NDC != wantStats.NDC {
						fail(fmt.Errorf("pinned snapshot drifted mid-churn"))
						return
					}
					for j := range wantRes {
						if res[j] != wantRes[j] {
							fail(fmt.Errorf("pinned result %d drifted: %+v != %+v", j, res[j], wantRes[j]))
							return
						}
					}
					continue
				}
				res, _, err := idx.Search(qi, lan.SearchOptions{K: 3, Beam: 10})
				if err != nil {
					fail(fmt.Errorf("search: %w", err))
					return
				}
				if len(res) == 0 {
					fail(fmt.Errorf("search returned nothing mid-churn"))
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}

	if idx.Epoch() == 0 {
		return fmt.Errorf("churn left the epoch at 0")
	}
	if _, err := idx.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	res, _, err := idx.Search(q, lan.SearchOptions{K: 3, Beam: 10})
	if err != nil {
		return fmt.Errorf("post-churn search: %w", err)
	}
	if len(res) != 3 {
		return fmt.Errorf("post-churn search: %d results; want 3", len(res))
	}
	fmt.Printf("mutate-smoke: churned to epoch %d, %d live graphs\n", idx.Epoch(), idx.Len())
	return nil
}

// serveWrites boots lan-serve -writable and drives the write endpoints.
func serveWrites(db graph.Database, queries []*graph.Graph) error {
	dir, err := os.MkdirTemp("", "mutate-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	idx, err := lan.Build(db, queries, lan.Options{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 1})
	if err != nil {
		return err
	}
	return smoke.Serve(dir, idx, []string{"-writable"}, func(base string) error {
		return writeChecks(base, queries[0], len(db))
	})
}

// writeChecks drives the live, ready server's /insert and /delete and
// verifies epoch advance, cache invalidation and the write metric
// families.
func writeChecks(base string, q *graph.Graph, dbSize int) error {
	client := &http.Client{Timeout: 10 * time.Second}

	q.ID = -1
	searchBody, err := json.Marshal(map[string]interface{}{"query": q, "k": 3})
	if err != nil {
		return err
	}
	search := func() (cached bool, err error) {
		resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(searchBody))
		if err != nil {
			return false, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("/search: status %d: %s", resp.StatusCode, data)
		}
		var sr struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			return false, err
		}
		return sr.Cached, nil
	}

	// Warm the cache, then verify the hit.
	if _, err := search(); err != nil {
		return err
	}
	if cached, err := search(); err != nil || !cached {
		return fmt.Errorf("second search not cached (err=%v)", err)
	}

	// Insert: new id at the end of the id space, epoch > 0.
	insBody, err := json.Marshal(map[string]interface{}{"graph": q})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/insert", "application/json", bytes.NewReader(insBody))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/insert: status %d: %s", resp.StatusCode, data)
	}
	var ins struct {
		ID    int    `json:"id"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &ins); err != nil {
		return err
	}
	if ins.ID != dbSize || ins.Epoch == 0 {
		return fmt.Errorf("/insert: id %d epoch %d; want id %d, epoch > 0", ins.ID, ins.Epoch, dbSize)
	}

	// The insert moved the epoch, so the cached entry is orphaned.
	if cached, err := search(); err != nil || cached {
		return fmt.Errorf("search after insert still cached (err=%v): epoch-keyed invalidation broken", err)
	}

	// Delete graph 0; the epoch advances again.
	delBody := []byte(`{"id": 0}`)
	resp, err = client.Post(base+"/delete", "application/json", bytes.NewReader(delBody))
	if err != nil {
		return err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/delete: status %d: %s", resp.StatusCode, data)
	}
	var del struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &del); err != nil {
		return err
	}
	if del.Epoch <= ins.Epoch {
		return fmt.Errorf("/delete: epoch %d did not advance past %d", del.Epoch, ins.Epoch)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{
		`lanserve_write_requests_total{op="insert"} 1`,
		`lanserve_write_requests_total{op="delete"} 1`,
		"lanserve_write_seconds_count 2",
		"lan_mutate_inserts_total 1",
		"lan_mutate_deletes_total 1",
		"lan_mutate_apply_seconds_count 2",
	} {
		if !strings.Contains(string(data), want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, data)
		}
	}
	return nil
}

package lanio

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

func writeTempDB(t *testing.T, name string, db graph.Database) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if name[len(name)-5:] == ".json" {
		if err := graph.WriteJSON(f, db); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := graph.WriteText(f, db); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestReadDatabaseTextAndJSON(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	for _, name := range []string{"db.txt", "db.json"} {
		path := writeTempDB(t, name, db)
		got, err := ReadDatabase(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(db) {
			t.Fatalf("%s: %d graphs; want %d", name, len(got), len(db))
		}
		for i := range db {
			if !db[i].Equal(got[i]) {
				t.Fatalf("%s: graph %d differs", name, i)
			}
		}
	}
}

func TestReadDatabaseMissingFile(t *testing.T) {
	if _, err := ReadDatabase(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadQueriesStripsIDs(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	path := writeTempDB(t, "q.txt", db)
	qs, err := ReadQueries(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if q.ID != -1 {
			t.Fatalf("query %d kept ID %d", i, q.ID)
		}
	}
}

func TestBuildIndexFromParams(t *testing.T) {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 1)
	idx, err := BuildIndex(db, queries, BuildParams{Dim: 6, M: 4, Epochs: 1, GammaKNN: 5, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.Len() != len(db) {
		t.Fatalf("Len = %d", idx.Len())
	}
	if _, err := BuildIndex(db, nil, BuildParams{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

package lanio

import (
	"bytes"
	"encoding/json"
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
	if err := graph.WriteText(f, db); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadDatabaseTextAndJSON: the text format loads, and a JSON
// database — whatever its file name says — is refused with the text
// parser's error.
func TestReadDatabaseTextAndJSON(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	got, err := ReadDatabase(writeTempDB(t, "db.txt", db))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(db) {
		t.Fatalf("%d graphs; want %d", len(got), len(db))
	}
	for i := range db {
		if !db[i].Equal(got[i]) {
			t.Fatalf("graph %d differs", i)
		}
	}

	data, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := graph.ReadText(bytes.NewReader(data))
	if want == nil {
		t.Fatal("the text parser accepted a JSON database")
	}
	if _, err := ReadDatabase(path); err == nil || err.Error() != want.Error() {
		t.Fatalf("ReadDatabase(%s) = %v; want the text parser's %v", filepath.Base(path), err, want)
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

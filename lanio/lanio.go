// Package lanio provides the file-level conveniences shared by the
// command-line tools: loading graph databases and query workloads from
// disk.
package lanio

import (
	"os"

	"github.com/lansearch/lan/graph"
)

// ReadDatabase loads a graph database from a file in the line-oriented
// text format.
func ReadDatabase(path string) (graph.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadText(f)
}

// ReadQueries loads a workload file and strips database ids so the graphs
// are free-standing queries.
func ReadQueries(path string) ([]*graph.Graph, error) {
	db, err := ReadDatabase(path)
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Graph, len(db))
	for i, q := range db {
		q.ID = -1
		out[i] = q
	}
	return out, nil
}

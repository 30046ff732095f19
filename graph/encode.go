package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is a simple line-oriented exchange format compatible in
// spirit with the "t # id / v id label / e u v" format used by common graph
// database benchmarks (gSpan-style):
//
//	t # 0
//	v 0 C
//	v 1 N
//	e 0 1
//
// Graphs are separated by their "t" headers. Blank lines and lines starting
// with '%' or '//' are ignored.

// WriteText writes db in the line-oriented text format.
func WriteText(w io.Writer, db Database) error {
	bw := bufio.NewWriter(w)
	for _, g := range db {
		fmt.Fprintf(bw, "t # %d\n", g.ID)
		for u := 0; u < g.N(); u++ {
			fmt.Fprintf(bw, "v %d %s\n", u, g.Label(u))
		}
		for _, e := range g.Edges() {
			fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
		}
	}
	return bw.Flush()
}

// ReadText parses the line-oriented text format into a Database. Node ids
// inside each graph must be dense and in order (0,1,2,...).
func ReadText(r io.Reader) (Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var db Database
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "%") || strings.HasPrefix(txt, "//") {
			continue
		}
		f := strings.Fields(txt)
		switch f[0] {
		case "t":
			g = New(len(db))
			db = append(db, g)
		case "v":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: 'v' before 't'", line)
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'v id label'", line)
			}
			id, err := strconv.Atoi(f[1])
			if err != nil || id != g.N() {
				return nil, fmt.Errorf("graph: line %d: non-dense node id %q (want %d)", line, f[1], g.N())
			}
			g.AddNode(f[2])
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: 'e' before 't'", line)
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e u v'", line)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, txt)
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, g := range db {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// jsonGraph is the JSON wire form of a Graph.
type jsonGraph struct {
	ID     int      `json:"id"`
	Labels []string `json:"labels"`
	Edges  [][2]int `json:"edges"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{ID: g.ID, Labels: g.Labels(), Edges: g.Edges()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = Graph{ID: jg.ID}
	for _, l := range jg.Labels {
		g.AddNode(l)
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

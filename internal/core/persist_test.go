package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/obs"
)

// saveV3 writes the fixture engine as a v3 snapshot and returns its path.
func saveV3(t *testing.T, e *Engine) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.lansnap")
	if err := SaveSnapshotV3(path, e, nil); err != nil {
		t.Fatalf("SaveSnapshotV3: %v", err)
	}
	return path
}

// reopen opens a v3 snapshot with the fixture's (default) metrics.
func reopen(t *testing.T, path string) *Engine {
	t.Helper()
	eng, _, err := OpenSnapshotV3(path, Options{})
	if err != nil {
		t.Fatalf("OpenSnapshotV3: %v", err)
	}
	return eng
}

// comparableStats strips the wall-time fields, which legitimately differ
// between runs; everything else — NDC and its per-stage split, explored
// nodes, ranker calls, batch/γ accounting, cache hits — must be
// bit-identical between an engine and its reopened snapshot.
func comparableStats(s QueryStats) QueryStats {
	s.DistTime, s.ModelTime, s.InitTime, s.RouteTime, s.Total = 0, 0, 0, 0, 0
	return s
}

// TestSnapshotV3RAMMatchesOriginal pins that reopening a snapshot
// reproduces the engine that wrote it under every initial/routing
// strategy: results (ids and exact distances), the whole NDC and routing
// accounting, and the routing trajectory (entry node, explored steps, γ
// trajectory).
func TestSnapshotV3RAMMatchesOriginal(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	ram := reopen(t, saveV3(t, eng))
	strategies := []struct {
		is InitialStrategy
		rt RoutingStrategy
	}{
		{LANIS, LANRoute},
		{LANIS, BaselineRoute},
		{LANIS, OracleRoute},
		{HNSWIS, LANRoute},
		{RandIS, LANRoute},
		{LANISBasic, LANRoute},
	}
	if testing.Short() {
		strategies = strategies[:2]
	}
	for _, st := range strategies {
		so := SearchOptions{K: 5, Beam: 10, Initial: st.is, Routing: st.rt}
		tag := st.is.String() + "/" + st.rt.String()
		for qi, q := range test {
			wantTrace, gotTrace := obs.NewTrace("built"), obs.NewTrace("reopened")
			wantRes, wantStats, _ := eng.Search(obs.With(context.Background(), wantTrace), q, so)
			gotRes, gotStats, _ := ram.Search(obs.With(context.Background(), gotTrace), q, so)
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("%s query %d: results differ from the engine that wrote the snapshot", tag, qi)
			}
			if comparableStats(wantStats) != comparableStats(gotStats) {
				t.Fatalf("%s query %d: stats differ from the engine that wrote the snapshot", tag, qi)
			}
			if wantTrace.Entry != gotTrace.Entry ||
				!reflect.DeepEqual(wantTrace.Steps, gotTrace.Steps) ||
				!reflect.DeepEqual(wantTrace.Gammas, gotTrace.Gammas) {
				t.Fatalf("%s query %d: routing trajectories diverge\nbuilt:    entry=%d steps=%v gammas=%v\nreopened: entry=%d steps=%v gammas=%v",
					tag, qi,
					wantTrace.Entry, wantTrace.Steps, wantTrace.Gammas,
					gotTrace.Entry, gotTrace.Steps, gotTrace.Gammas)
			}
		}
	}
}

// TestSnapshotV3ResaveByteIdentical: an engine opened from a snapshot
// saves the very file it was opened from — every section, the metadata
// with the model parameters included, comes back byte for byte.
func TestSnapshotV3ResaveByteIdentical(t *testing.T) {
	eng, _, _, _ := buildEngine(t)
	path := saveV3(t, eng)
	again := filepath.Join(t.TempDir(), "again.lansnap")
	if err := SaveSnapshotV3(again, reopen(t, path), nil); err != nil {
		t.Fatalf("SaveSnapshotV3: %v", err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-saved snapshot differs from the original (%d vs %d bytes)", len(b), len(a))
	}
}

// TestOpenSnapshotV3RejectsJSONIndex: the JSON index formats are gone, and
// the opener must say so by name rather than choke on such a file.
func TestOpenSnapshotV3RejectsJSONIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.lan")
	if err := os.WriteFile(path, []byte(`{"version":2,"gamma_star":4,"adj":[[1],[0]],"epoch":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshotV3(path, Options{}); !errors.Is(err, lanstore.ErrNotSnapshot) {
		t.Fatalf("err = %v; want ErrNotSnapshot", err)
	}
}

// tinySpec is a database for tests that need an engine with every part
// and none of the quality: a dozen five-node graphs build in milliseconds
// and save to a few kilobytes.
var tinySpec = dataset.Spec{Name: "TINY", Kind: dataset.KindMolecule, Graphs: 12, AvgNodes: 5, AvgEdges: 5,
	NumLabels: 2, LabelSkew: 0.3, ClusterSize: 4, MaxMutations: 2, Seed: 9}

// TestSaveLoadRoundTrip pins what the metadata carries: every option the
// reopened engine needs — to shape its models, to route, and to keep
// inserting the way the index was built — comes back as it was saved,
// together with γ*, the hierarchy and the clustering. Every
// option is set away from its default, so a field the format dropped
// would come back as the default and fail here.
func TestSaveLoadRoundTrip(t *testing.T) {
	db := tinySpec.Generate()
	train, _, _ := dataset.Split(dataset.Workload(db, tinySpec, 8, 3))
	eng, err := Build(db, train, Options{
		M: 4, EfConstruction: 64, Layers: 3, Dim: 6, BatchPercent: 25, Hidden: 10,
		GammaKNN: 3, Clusters: 2, TopClusters: 2, Samples: 3, StepSize: 2,
		Train: models.TrainOptions{Epochs: 1}, Seed: 7,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	persisted := func(e *Engine) Options {
		o := e.Opts
		return Options{
			M: o.M, EfConstruction: o.EfConstruction, Layers: o.Layers, Dim: o.Dim,
			BatchPercent: o.BatchPercent, Hidden: o.Hidden, UseCG: o.UseCG,
			TopClusters: o.TopClusters, Samples: o.Samples, StepSize: o.StepSize, Seed: o.Seed,
		}
	}
	got := reopen(t, saveV3(t, eng))
	if a, b := persisted(got), persisted(eng); !reflect.DeepEqual(a, b) {
		t.Fatalf("options\n got %+v\nwant %+v", a, b)
	}
	if got.GammaStar != eng.GammaStar {
		t.Fatalf("gamma* %v != %v", got.GammaStar, eng.GammaStar)
	}
	if !reflect.DeepEqual(got.Index.PG.Adj, eng.Index.PG.Adj) || !reflect.DeepEqual(got.Index.Upper, eng.Index.Upper) ||
		!reflect.DeepEqual(got.Index.Level, eng.Index.Level) || got.Index.Entry != eng.Index.Entry {
		t.Fatal("the proximity graph changed in the round trip")
	}
	if !reflect.DeepEqual(got.Mc.Clusters(), eng.Mc.Clusters()) {
		t.Fatal("the clustering changed in the round trip")
	}
}

// savedMeta returns the metadata section SaveSnapshotV3 writes for eng.
func savedMeta(t *testing.T, eng *Engine) []byte {
	t.Helper()
	snap, err := lanstore.Open(saveV3(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	return snap.Meta
}

// craftedSnapshot writes eng as a snapshot after edit has had its way
// with the writer's inputs — every checksum valid, which is what a
// hostile or buggy writer produces and a CRC cannot catch. meta is the
// metadata section (savedMeta), handed to edit field by field.
func craftedSnapshot(t *testing.T, eng *Engine, meta []byte, edit func(d *lanstore.SnapshotData, meta map[string]json.RawMessage)) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(meta, &fields); err != nil {
		t.Fatal(err)
	}
	d := &lanstore.SnapshotData{DB: eng.DB, Adj: eng.Index.PG.Adj, Emb: eng.Mrk.NodeEmbeddings()}
	edit(d, fields)
	if d.Meta == nil {
		var err error
		if d.Meta, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "crafted.lansnap")
	if err := lanstore.Write(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadErrors feeds the opener metadata that passes every checksum and
// is wrong: each case must come back as ErrCorrupt — not as
// an index out of range, a makeslice panic or a gigabyte of model — and
// the unedited file must open.
func TestLoadErrors(t *testing.T) {
	eng, _, _, _ := buildEngine(t)
	n, meta := len(eng.DB), savedMeta(t, eng)
	// set overwrites metadata fields, given as field, value, field, value…
	set := func(kv ...string) func(*lanstore.SnapshotData, map[string]json.RawMessage) {
		return func(_ *lanstore.SnapshotData, meta map[string]json.RawMessage) {
			for i := 0; i < len(kv); i += 2 {
				meta[kv[i]] = json.RawMessage(kv[i+1])
			}
		}
	}
	ints := func(n, v int) string { // a JSON array of n copies of v
		return "[" + strings.TrimSuffix(strings.Repeat(strconv.Itoa(v)+",", n), ",") + "]"
	}
	cases := []struct {
		name string
		edit func(*lanstore.SnapshotData, map[string]json.RawMessage)
	}{
		{"meta is not JSON", func(d *lanstore.SnapshotData, _ map[string]json.RawMessage) { d.Meta = []byte("{") }},
		{"metadata version 2", set("version", "2")},
		{"assign out of range", set("assign", ints(n, 100000))},
		{"assign negative", set("assign", ints(n, -1))},
		{"assign too short", set("assign", ints(n-1, 0))},
		{"level too short", set("level", ints(n-1, 0))},
		{"level above the hierarchy", set("level", ints(n, 99))},
		{"entry past the database", set("entry", strconv.Itoa(n))},
		{"entry negative", set("entry", "-1")},
		{"upper layer is null", set("upper", "[null]", "level", ints(n, 0))},
		{"upper node out of range", set("upper", `[{"100000":[0]}]`, "level", ints(n, 0))},
		{"upper neighbor out of range", set("upper", `[{"0":[100000]}]`, "level", ints(n, 0))},
		{"dim 1<<40", set("dim", "1099511627776")},
		{"dim beyond the stored parameters", set("dim", "4096")},
		{"dim off by one", set("dim", strconv.Itoa(eng.Opts.Dim+1))},
		{"hidden 1<<40", set("hidden", "1099511627776")},
		{"hidden zero", set("hidden", "0")},
		{"layers 1<<40", set("layers", "1099511627776")},
		{"layers beyond the stored parameters", set("layers", "60000")},
		{"m negative", set("m", "-1")},
		{"ef_construction negative", set("ef_construction", "-1")},
		{"step_size that γ absorbs", set("step_size", "1e-300")},
		{"top_clusters 1<<31-1", set("top_clusters", "2147483647")},
		{"samples negative", set("samples", "-1")},
		{"one head per percent, parameters for five", set("batch_percent", "1")},
		{"parameters of an unknown tensor", set("mrk_params", `[{"name":"nope","rows":1,"cols":9999,"data":`+ints(9999, 0)+`}]`)},
		{"centroid of the wrong width", set("centroids", "[[1,2]]", "assign", ints(n, 0))},
		{"epoch without validity stamps", set("epoch", "5")},
		{"node embeddings of the wrong width", func(d *lanstore.SnapshotData, _ map[string]json.RawMessage) {
			wide := make([][]float64, len(d.Emb))
			for i, row := range d.Emb {
				wide[i] = append(append([]float64(nil), row...), 0)
			}
			d.Emb = wide
		}},
		{"adjacency pointing past the database", func(d *lanstore.SnapshotData, _ map[string]json.RawMessage) {
			adj := append([][]int(nil), d.Adj...)
			adj[0] = append(append([]int(nil), adj[0]...), 100000)
			d.Adj = adj
		}},
	}
	for _, c := range cases {
		_, _, err := OpenSnapshotV3(craftedSnapshot(t, eng, meta, c.edit), Options{})
		t.Logf("%s: %v", c.name, err)
		if !errors.Is(err, lanstore.ErrCorrupt) {
			t.Errorf("%s: err = %v; want ErrCorrupt", c.name, err)
		}
	}

	// The crafting itself is sound: with no edit the file opens, and a file
	// written before ef_construction was persisted opens with 2M.
	path := craftedSnapshot(t, eng, meta, func(_ *lanstore.SnapshotData, meta map[string]json.RawMessage) {
		delete(meta, "ef_construction")
	})
	if got := reopen(t, path); got.Opts.EfConstruction != 2*eng.Opts.M {
		t.Fatalf("EfConstruction = %d without the key; want 2M = %d", got.Opts.EfConstruction, 2*eng.Opts.M)
	}
}

// restamp recomputes the section checksums of a snapshot in place (where
// the section table still points inside the file), so that mutated bytes
// in a checksummed section reach the code behind the checksum.
func restamp(data []byte) {
	const table = 8 + 4*8 // magic + the four scalar header fields
	for sec := 0; sec < 6; sec++ {
		entry := table + 24*sec
		if entry+24 > len(data) {
			return
		}
		off := binary.LittleEndian.Uint64(data[entry:])
		length := binary.LittleEndian.Uint64(data[entry+8:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			continue
		}
		binary.LittleEndian.PutUint64(data[entry+16:], uint64(crc32.ChecksumIEEE(data[off:off+length])))
	}
}

// FuzzOpenSnapshot throws damaged snapshots at the opener, as they are and
// with their checksums made good again: the outcome is an engine or one of the three named errors — never a panic, and never an
// allocation the file's own size does not justify.
//
// The fuzzed value is not the file but what is done to one: the snapshot
// of a small engine, byte overwrites as (offset lo, offset hi, value)
// triples, and a length to cut it to. The engine minimizes every input
// that finds new coverage, for up to a minute apiece, and on whole files
// of kilobytes a run spends all its time there; triples minimize in no
// time. An odd seed value takes the bytes as the whole file.
func FuzzOpenSnapshot(f *testing.F) {
	db := tinySpec.Generate()
	train, _, _ := dataset.Split(dataset.Workload(db, tinySpec, 8, 3))
	eng, err := Build(db, train, Options{
		M: 2, Layers: 1, Dim: 2, Hidden: 2, BatchPercent: 50, GammaKNN: 3, Clusters: 2,
		Train: models.TrainOptions{Epochs: 1}, Seed: 1,
	})
	if err != nil {
		f.Fatalf("Build: %v", err)
	}
	path := filepath.Join(f.TempDir(), "seed.lansnap")
	if err := SaveSnapshotV3(path, eng, nil); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if len(raw) > 1<<16 {
		f.Fatalf("seed snapshot is %d bytes; the edit offsets are 16 bits", len(raw))
	}
	f.Add(uint8(0), uint32(len(raw)), []byte{})
	// The header fields that opened and then panicked before they were
	// bounded: a graph count and an embedding dimension with a high bit set.
	f.Add(uint8(0), uint32(1<<16), []byte{8 + 7, 0, 0x20})
	f.Add(uint8(0), uint32(1<<16), []byte{16 + 7, 0, 0x80})
	f.Add(uint8(0), uint32(1<<16), []byte{16 + 7, 0, 0x40})
	f.Add(uint8(0), uint32(200), []byte{})
	f.Add(uint8(1), uint32(1<<16), []byte("LANSNAP3"))
	// The embedding encodings that were removed: f32 and int8.
	f.Add(uint8(0), uint32(1<<16), []byte{24, 0, 1})
	f.Add(uint8(0), uint32(1<<16), []byte{24, 0, 2})
	// A metadata edit that reaches validate once the checksums are made
	// good again: a step_size below the floor, written over the field and
	// the seed that follows it.
	const was, now = `"step_size":1,"seed":1`, `"step_size":1e-300    `
	at := bytes.Index(raw, []byte(was))
	if at < 0 || len(was) != len(now) {
		f.Fatalf("seed snapshot's metadata has no %s", was)
	}
	var stepSize []byte
	for i := range now {
		stepSize = append(stepSize, byte(at+i), byte((at+i)>>8), now[i])
	}
	f.Add(uint8(0), uint32(1<<16), stepSize)

	f.Fuzz(func(t *testing.T, seed uint8, keep uint32, edits []byte) {
		data := edits
		if seed%2 == 0 {
			data = append([]byte(nil), raw...)
			for ; len(edits) >= 3; edits = edits[3:] {
				data[(int(edits[0])|int(edits[1])<<8)%len(data)] = edits[2]
			}
			if int(keep) < len(data) {
				data = data[:keep]
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.lansnap")
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				data = append([]byte(nil), data...)
				restamp(data)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenSnapshotV3(path, Options{Workers: 1})
			switch {
			case err == nil:
			case errors.Is(err, lanstore.ErrCorrupt), errors.Is(err, lanstore.ErrNotSnapshot), errors.Is(err, lanstore.ErrFutureVersion):
			default:
				t.Fatalf("unnamed error %v", err)
			}
		}
	})
}

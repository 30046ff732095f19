package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// churn_rw is one client in a closed loop: it asks the churnPass queries in
// order, pass after pass, and after every readsPerWrite-th search it applies
// the next write of the schedule, two inserts to one delete. At ~10 ms a
// search that is about 20 writes a second. Nothing runs beside the client
// but what the index itself starts (the optimizer), so every pass is the
// same sequence of operations and a search's time is the fastest of its
// repeats (see fastest): the search after an insert meets the optimizer and
// the new snapshot in every pass, and keeps what they cost it; what another
// tenant of the host cost it in one pass, it loses in the next.
const (
	readsPerWrite = 5
	churnPass     = 90 // 18 writes, 6 times the 2:1 pattern: a position follows the same kind of write in every pass
)

// settledQueries is how many queries recall is taken on once the writes
// are in. The truth depends on the seed's schedule and is brute-forced
// anyway, so it can be more than the pinned set: the index left by one
// schedule differs from the next, and 100 queries leave recall swinging by
// several percent between seeds.
const settledQueries = 200

// writeOp is one scheduled write: an insert of a fresh graph, or (insert
// nil) the delete of a graph that is live at that point of the schedule.
type writeOp struct {
	insert *graph.Graph
	id     int // the id the insert must be given, or the id to delete
}

// writeSchedule lays out n writes. Ids only grow, so the id of every insert
// is known in advance, and delete victims are drawn from the graphs the
// schedule itself has left alive.
func writeSchedule(dbLen int, fresh []*graph.Graph, n int, seed int64) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, dbLen)
	for i := range live {
		live[i] = i
	}
	ops := make([]writeOp, 0, n)
	nextID, nextFresh := dbLen, 0
	for i := 0; i < n; i++ {
		var op writeOp
		if i%3 == 2 {
			j := rng.Intn(len(live))
			op.id = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			op.insert, op.id = fresh[nextFresh%len(fresh)], nextID
			live = append(live, nextID)
			nextFresh++
			nextID++
		}
		ops = append(ops, op)
	}
	return ops
}

// churned is what a window of reads and writes produced.
type churned struct {
	passes  [][]sample // the searches, pass by pass
	inserts []time.Duration
	deletes []time.Duration
	dead    map[int]bool
	err     error // first failed write
	failed  int
}

// churnWindow runs whole passes until the window is used up. With spans on,
// every insert is an "insert" span whose children are the build metric's
// calls.
func (b *bench) churnWindow(window time.Duration, spans bool) churned {
	// More writes than the fastest reader gets to: 4 ms a search would make
	// fifty a second, and the last pass runs past the window.
	n := int(50 * (window.Seconds() + 3))
	fresh := dataset.Workload(b.db, b.w.spec, n, b.seed+1)
	ops := writeSchedule(len(b.db), fresh, n, b.seed)
	c := churned{dead: make(map[int]bool)}
	for start := time.Now(); time.Since(start) < window && len(ops) >= churnPass/readsPerWrite; {
		var pass []sample
		for q := 0; q < churnPass; q++ {
			pass = append(pass, b.searchLoop(searchOpts, q, 1, 0, nil)...)
			if q%readsPerWrite == readsPerWrite-1 {
				c.write(b, ops[0], spans)
				ops = ops[1:]
			}
		}
		c.passes = append(c.passes, pass)
	}
	return c
}

// write applies one write of the schedule.
func (c *churned) write(b *bench, op writeOp, spans bool) {
	t0 := time.Now()
	var err error
	if op.insert == nil {
		err = b.idx.Delete(op.id)
		c.deletes = append(c.deletes, time.Since(t0))
		c.dead[op.id] = true
	} else {
		var span, id int
		if spans {
			span = b.tr.begin("insert", len(c.inserts), t0)
			b.build.enter(span, len(c.inserts))
		}
		id, err = b.idx.Insert(op.insert)
		t1 := time.Now()
		if spans {
			b.build.enter(0, 0)
			b.tr.finish(span, t1)
		}
		c.inserts = append(c.inserts, t1.Sub(t0))
		if err == nil && id != op.id {
			err = fmt.Errorf("insert got id %d, schedule expected %d", id, op.id)
		}
	}
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
	}
}

// reads is every search of the window.
func (c churned) reads() []sample {
	var out []sample
	for _, pass := range c.passes {
		out = append(out, pass...)
	}
	return out
}

// count books the window's operations into the report.
func (c churned) count(r *report) {
	writes := len(c.inserts) + len(c.deletes)
	r.attempted += writes
	r.failed += c.failed
	if c.err != nil {
		r.problem("%d of %d writes failed, first: %v", c.failed, writes, c.err)
	}
	for _, s := range c.reads() {
		r.attempted++
		if s.err != nil {
			r.failed++
			r.problem("search between writes failed: %v", s.err)
		}
	}
}

// churnPart runs reads and writes for the window and keeps the passes.
func (b *bench) churnPart(r *report, t *timed, window time.Duration) {
	c := b.churnWindow(window, false)
	t.dead = c.dead
	c.count(r)
	t.passes = append(t.passes, c.passes...)
}

// scoreChurn scores the passes, then drains the optimizer of the last
// set-up's index and takes recall against brute force over the graphs its
// writes left.
func (b *bench) scoreChurn(r *report, t *timed) error {
	b.scoreRepeats(r, t.passes, false)

	// A reply between writes may hold a graph deleted after the search
	// pinned its snapshot, so the gate and recall run on the settled index.
	b.idx.Quiesce()
	settled := b.searchLoop(searchOpts, 0, settledQueries, 0, nil)
	return b.gateAndRecall(r, settled, settledQueries, b.idx.Database(), t.dead)
}

// tracedChurn prices the write path: a quiet read-only quarter for the
// baseline, half a window of the same schedule with the wrappers on, then
// Quiesce and Compact.
func (b *bench) tracedChurn(r *report, window time.Duration) error {
	// The quiet baseline asks what the reader beside the writes will ask.
	var quiet []sample
	for start := time.Now(); time.Since(start) < window/4; {
		quiet = append(quiet, b.searchLoop(searchOpts, 0, churnPass, 0, nil)...)
	}

	b.build.reset()
	b.build.on.Store(true)
	firstSpan := len(b.tr.spans)
	c := b.churnWindow(window/2, true)
	b.build.on.Store(false)
	spans := b.tr.spans[firstSpan:]
	c.count(r)
	reads := c.reads()

	walls := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.wall)
		}
		return out
	}
	ins := sortedCopy(durationsMS(c.inserts))
	r.set("mutable.insert_p50_ms", percentile(ins, 50), len(ins))
	// The tail is the highest percentile that still has ten inserts beyond it.
	r.set("mutable.insert_tail_ms", percentile(ins, tailPercentile(len(ins), []float64{75, 90, 99})), len(ins))
	r.set("mutable.delete_p50_us", 1000*percentile(sortedCopy(durationsMS(c.deletes)), 50), len(c.deletes))

	// An insert's self time is what it spent outside the build metric.
	self := selfTimes(spans)
	var insertWall time.Duration
	gedCalls := 0
	for _, s := range spans {
		switch s.Name {
		case "insert":
			insertWall += time.Duration(s.EndNS - s.StartNS)
		case "ged.distance":
			gedCalls++
		}
	}
	r.set("mutable.insert_ged_calls", ratio(float64(gedCalls), float64(len(c.inserts))), len(c.inserts))
	r.set("mutable.insert_ged_share", 1-ratio(float64(self["insert"]), float64(insertWall)), len(c.inserts))

	ndc := 0
	for _, s := range reads {
		ndc += s.st.NDC
	}
	r.set("mutable.ndc_mean_under_churn", ratio(float64(ndc), float64(len(reads))), len(reads))
	r.set("mutable.read_slowdown", ratio(median(walls(reads)), median(walls(quiet))), len(reads))

	start := time.Now()
	b.idx.Quiesce()
	r.set("mutable.quiesce_ms", ms(time.Since(start)), 1)
	start = time.Now()
	if _, err := b.idx.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	r.set("mutable.compact_ms", ms(time.Since(start)), 1)
	r.set("mutable.epochs", float64(b.idx.Epoch()), 1)
	r.set("mutable.final_live", float64(b.idx.Len()), 1)
	return nil
}

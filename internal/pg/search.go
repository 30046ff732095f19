package pg

import (
	"math"
	"sort"

	"github.com/lansearch/lan/internal/order"
)

// Candidate is an entry of the pool W: a database graph and its distance
// to the query.
type Candidate struct {
	ID   int
	Dist float64
}

// Pool is the candidate priority pool W of np_route (Algorithm 2, and
// Algorithm 1 as its one-batch case), with the paper's tie-breaking:
// ascending distance; on ties an unexplored node outranks an explored one,
// two explored nodes rank by recency of exploration, and two unexplored
// nodes rank by smaller id. Exploration state is remembered for the whole
// query, so nodes dropped from W stay explored if they return.
type Pool struct {
	items []Candidate
	inW   map[int]bool
	// exploredSeq[id] is the exploration timestamp (1, 2, ...); absent
	// means unexplored.
	exploredSeq map[int]int
	seq         int

	// k is the number of answers TopKAlive returns. On indexes with
	// tombstones (dead non-nil) the best k live candidates ever added are
	// kept in survivors, immune to Resize evictions. Soft-deleted vertices
	// route like any other and compete for beam slots, so a neighborhood
	// dense with tombstones could otherwise crowd every live answer out of
	// W before the answers are read.
	k         int
	dead      []bool
	survivors []Candidate
}

// NewPool returns an empty pool for a query that wants k answers from an
// index whose tombstones are dead (nil on immutable indexes: no survivor
// tracking, no overhead).
func NewPool(k int, dead []bool) *Pool {
	return &Pool{inW: make(map[int]bool), exploredSeq: make(map[int]int), k: k, dead: dead}
}

// Add inserts id into W unless already present.
func (p *Pool) Add(id int, dist float64) {
	if p.inW[id] {
		return
	}
	p.inW[id] = true
	p.items = append(p.items, Candidate{ID: id, Dist: dist})
	if p.dead != nil && (id >= len(p.dead) || !p.dead[id]) {
		p.addSurvivor(Candidate{ID: id, Dist: dist})
	}
}

// addSurvivor keeps c in the sorted k-best accumulator of live
// candidates. Candidates evicted from W and re-Added later arrive here
// again with the same distance (the metric is deterministic), so an
// existing entry is left alone.
func (p *Pool) addSurvivor(c Candidate) {
	pos := sort.Search(len(p.survivors), func(i int) bool {
		s := p.survivors[i]
		return !order.ByDistThenID(s.Dist, s.ID, c.Dist, c.ID)
	})
	if pos < len(p.survivors) && p.survivors[pos].ID == c.ID {
		return
	}
	if pos >= p.k {
		return
	}
	if len(p.survivors) < p.k {
		p.survivors = append(p.survivors, Candidate{})
	}
	copy(p.survivors[pos+1:], p.survivors[pos:])
	p.survivors[pos] = c
}

// MarkExplored stamps id with the next exploration timestamp.
func (p *Pool) MarkExplored(id int) {
	p.seq++
	p.exploredSeq[id] = p.seq
}

// Explored reports whether id has ever been explored in this query.
func (p *Pool) Explored(id int) bool {
	_, ok := p.exploredSeq[id]
	return ok
}

// less implements the paper's resize priority.
func (p *Pool) less(a, b Candidate) bool {
	if c := order.Cmp(a.Dist, b.Dist); c != 0 {
		return c < 0
	}
	sa, ea := p.exploredSeq[a.ID]
	sb, eb := p.exploredSeq[b.ID]
	switch {
	case ea != eb:
		return !ea // unexplored first
	case ea && eb:
		return sa > sb // more recently explored first
	default:
		return a.ID < b.ID
	}
}

// Resize keeps the b highest-priority candidates. less is a strict total
// order (distance ties break on exploration state and then id), so the
// kept set is unique and a partial selection of the b best is equivalent
// to the full sort this used to do — Resize runs after every exploration
// step, and no reader depends on the internal item order (Best,
// NextUnexplored and TopK impose their own).
func (p *Pool) Resize(b int) {
	if len(p.items) <= b {
		return
	}
	if b > 0 {
		p.selectBest(b)
	}
	for _, c := range p.items[b:] {
		delete(p.inW, c.ID)
	}
	p.items = p.items[:b]
}

// selectBest partitions items so positions [0, b) hold the b best under
// less, via Hoare-partition quickselect (expected linear time, no
// allocation).
func (p *Pool) selectBest(b int) {
	lo, hi := 0, len(p.items)-1
	for lo < hi {
		pivot := p.items[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for p.less(p.items[i], pivot) {
				i++
			}
			for p.less(pivot, p.items[j]) {
				j--
			}
			if i <= j {
				p.items[i], p.items[j] = p.items[j], p.items[i]
				i++
				j--
			}
		}
		// items[lo..j] <= pivot <= items[i..hi]; narrow to the side that
		// still straddles the boundary b.
		switch {
		case b <= j:
			hi = j
		case b >= i:
			lo = i
		default:
			return
		}
	}
}

// Best returns the candidate with the smallest distance (ties by id)
// regardless of exploration state, or ok=false on an empty pool.
func (p *Pool) Best() (Candidate, bool) {
	best := Candidate{}
	found := false
	for _, c := range p.items {
		if !found || order.ByDistThenID(c.Dist, c.ID, best.Dist, best.ID) {
			best = c
			found = true
		}
	}
	return best, found
}

// NextUnexplored returns the unexplored candidate with the smallest
// distance (ties by id), or ok=false.
func (p *Pool) NextUnexplored() (Candidate, bool) {
	best := Candidate{}
	found := false
	for _, c := range p.items {
		if p.Explored(c.ID) {
			continue
		}
		if !found || order.ByDistThenID(c.Dist, c.ID, best.Dist, best.ID) {
			best = c
			found = true
		}
	}
	return best, found
}

// NextUnexploredWithin is NextUnexplored restricted to distance <= gamma.
func (p *Pool) NextUnexploredWithin(gamma float64) (Candidate, bool) {
	c, ok := p.NextUnexplored()
	if !ok || c.Dist > gamma {
		return Candidate{}, false
	}
	return c, true
}

// AllExplored reports whether every candidate in W has been explored.
func (p *Pool) AllExplored() bool {
	_, ok := p.NextUnexplored()
	return !ok
}

// Cutoff returns the largest distance in W when W holds at least b
// candidates, +Inf otherwise. Until members leave W, a candidate farther
// than the cutoff has b better ones beside it and cannot survive the next
// Resize(b), so adding it changes nothing.
func (p *Pool) Cutoff(b int) float64 {
	if len(p.items) < b {
		return math.Inf(1)
	}
	worst := math.Inf(-1)
	for _, c := range p.items {
		worst = math.Max(worst, c.Dist)
	}
	return worst
}

// TopKAlive returns the k best candidates by (distance, id) that are not
// marked dead: soft-deleted vertices route like any other but never
// surface as answers. On indexes with tombstones the answer comes from the
// survivor accumulator, which has seen every live candidate the query ever
// evaluated — including ones tombstone-heavy neighborhoods pushed out of
// the beam; a nil dead reads W itself.
func (p *Pool) TopKAlive() []Result {
	if p.dead != nil {
		return topK(p.survivors, p.k)
	}
	return topK(p.items, p.k)
}

// searchLayer is the standard ef-search used during index construction:
// greedy best-first expansion bounded by an ef-sized result set, over an
// arbitrary adjacency function. When pool is non-nil the unvisited
// neighbors of each expanded node are prefetched concurrently; the merge
// back into the cache is ordered, so the search trajectory — and hence
// the built index — is identical to the sequential run.
func searchLayer(c *DistCache, neighbors func(int) []int, entry int, ef int, pool *WorkerPool) []Candidate {
	visited := map[int]bool{entry: true}
	entryCand := Candidate{ID: entry, Dist: c.Dist(entry)}
	cands := []Candidate{entryCand}   // frontier, ascending
	results := []Candidate{entryCand} // best ef, ascending
	var batch []int
	for len(cands) > 0 {
		cur := cands[0]
		cands = cands[1:]
		worst := results[len(results)-1]
		if cur.Dist > worst.Dist && len(results) >= ef {
			break
		}
		batch = batch[:0]
		for _, nb := range neighbors(cur.ID) {
			if !visited[nb] {
				batch = append(batch, nb)
			}
		}
		c.Prefetch(batch, pool)
		for _, nb := range batch {
			visited[nb] = true
			d := c.Dist(nb)
			if len(results) < ef || d < results[len(results)-1].Dist {
				nc := Candidate{ID: nb, Dist: d}
				cands = insertAsc(cands, nc)
				results = insertAsc(results, nc)
				if len(results) > ef {
					results = results[:ef]
				}
			}
		}
	}
	return results
}

func insertAsc(s []Candidate, c Candidate) []Candidate {
	i := sort.Search(len(s), func(i int) bool {
		// The first element strictly after c in the canonical order.
		return order.ByDistThenID(c.Dist, c.ID, s[i].Dist, s[i].ID)
	})
	s = append(s, Candidate{})
	copy(s[i+1:], s[i:])
	s[i] = c
	return s
}

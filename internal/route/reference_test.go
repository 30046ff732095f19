package route

import "github.com/lansearch/lan/internal/pg"

// This file is the oracle: Algorithm 1 as pg.BeamSearch ran it before
// Route with a nil Ranker took its place on the query path, moved here
// (less its context checks and trace recording) as refBeamSearch. Nothing
// outside the tests links it. The two loops differ in one place:
// Algorithm 3's sweep re-adds evicted neighbors that tie under the pool's
// "unexplored before explored" rule (DESIGN.md deviation 2), which
// refBeamSearch never revisits — so the tests hold Route to it as "never
// worse at any rank", not "equal".

// refBeamSearch is Algorithm 1: the baseline greedy routing on the
// proximity graph. It starts at entry, explores the unexplored pool node
// closest to the query, computes distances for all its PG neighbors, and
// keeps the best b candidates, stopping when every pool member is
// explored. It returns the k best along with search statistics.
func refBeamSearch(p *pg.PG, c *pg.DistCache, entry, k, b int) ([]pg.Result, pg.Stats) {
	w := pg.NewPool(k, p.Dead)
	w.Add(entry, c.Dist(entry))
	explored := 0
	for {
		cur, ok := w.NextUnexplored()
		if !ok {
			break
		}
		for _, nb := range p.Neighbors(cur.ID) {
			w.Add(nb, c.Dist(nb))
		}
		w.MarkExplored(cur.ID)
		explored++
		w.Resize(b)
	}
	return w.TopKAlive(), pg.Stats{NDC: c.NDC(), Explored: explored}
}

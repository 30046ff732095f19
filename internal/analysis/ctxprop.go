package analysis

import "go/types"

// CtxProp enforces context propagation along the query path. GED
// evaluations are the expensive, cancellable unit of work in this system
// (a single exact GED can run for seconds), so the determinism-and-
// cancellation contract says: any function that can transitively trigger a
// distance evaluation or hand work to the distance worker pool must be
// reachable by the caller's context.Context — either as a parameter or via
// a context-carrying struct (the router pattern, where the per-query
// struct holds ctx so that a dozen small methods do not each take it).
//
// Three violations, all computed on the module call graph:
//
//  1. Thread break: a context-carrying function statically calls (through
//     any chain of non-carrying functions) a function that reaches a
//     distance sink. Cancellation dies at that boundary. The fix is to
//     thread ctx through the chain; leaf helpers that cannot forward it
//     further should at least check ctx.Err().
//  2. Fresh context: context.Background()/TODO() on a sink-reaching path
//     in a library package manufactures an uncancellable context.
//     Convenience wrappers are exempt: a function whose body directly
//     calls its sibling named <Name>Context is the documented
//     "Background at the API boundary" idiom.
//  3. Dropped context: a sink-reaching function accepts a ctx parameter
//     and never uses it — the signature promises cancellation the body
//     does not deliver.
//
// Propagation follows static edges only. Interface calls (the ged.Metric
// implementations, rankers) are deliberately not traversed: their call
// sites are the sinks themselves, and CHA expansion would drag the whole
// offline build/training path — which evaluates distances with no caller
// to cancel for — into every query-path report.
var CtxProp = &Analyzer{
	Name:      "ctxprop",
	Doc:       "functions transitively reaching GED/distance evaluations or pool submits must accept and forward a context.Context",
	RunGlobal: runCtxProp,
}

// modulePath is this module's import path; the sink set below is pinned to
// it (fixtures spoof these paths to exercise the analyzer).
const modulePath = "github.com/lansearch/lan"

// ctxSinkKeys are the call-graph keys of the distance sinks: the GED
// metric interface call, the per-query distance cache, and the worker-pool
// batch that fans evaluations out. Sink functions themselves are
// exempt from reporting — they are the boundary the contract protects.
var ctxSinkKeys = map[string]bool{
	modulePath + "/ged.Metric.Distance":            true,
	modulePath + "/internal/pg.DistCache.Dist":     true,
	modulePath + "/internal/pg.DistCache.Prefetch": true,
	modulePath + "/internal/pg.WorkerPool.run":     true,
}

func runCtxProp(p *GlobalPass) {
	g := p.Graph
	nodes := g.SortedNodes()

	// Sink-reaching set: nodes containing a sink call, closed under
	// reverse static edges ("can this function trigger a GED?").
	reachesSink := make(map[*FuncNode]bool)
	rev := make(map[*FuncNode][]*FuncNode)
	var frontier []*FuncNode
	for _, n := range nodes {
		direct := false
		for _, c := range n.Calls {
			if ctxSinkKeys[c.Key] {
				direct = true
			}
			if !c.Dynamic {
				if callee := g.NodeOf(c.Callee); callee != nil {
					rev[callee] = append(rev[callee], n)
				}
			}
		}
		if direct {
			reachesSink[n] = true
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, caller := range rev[n] {
			if !reachesSink[caller] {
				reachesSink[caller] = true
				frontier = append(frontier, caller)
			}
		}
	}

	// Carrier-descendant set: non-carrying functions statically reachable
	// from a carrier through non-carrying functions only (traversal stops
	// at carriers — each carrier re-roots its own subtree). The map value
	// is the carrier whose context gets lost, for the report.
	lostFrom := make(map[*FuncNode]*FuncNode)
	var stack []*FuncNode
	seed := func(carrier *FuncNode) {
		for _, c := range carrier.Calls {
			if c.Dynamic {
				continue
			}
			m := g.NodeOf(c.Callee)
			if m == nil || m.CarriesContext() {
				continue
			}
			if _, seen := lostFrom[m]; !seen {
				lostFrom[m] = lostFrom[carrier]
				if lostFrom[m] == nil {
					lostFrom[m] = carrier
				}
				stack = append(stack, m)
			}
		}
	}
	for _, n := range nodes {
		if n.CarriesContext() {
			seed(n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seed(n)
	}

	for _, n := range nodes {
		carrier, broken := lostFrom[n]
		if broken && reachesSink[n] && !ctxSinkKeys[n.Key] && !n.Pkg.IsCommand() && !isCtxWrapper(n) {
			p.Reportf(n.Pkg, n.Decl.Name.Pos(),
				"%s transitively reaches a distance evaluation or pool submit but does not accept or carry a context.Context, so cancellation from %s dies here; thread ctx through",
				n.Name(), carrier.Name())
		}
		if !n.Pkg.IsCommand() && reachesSink[n] && !isCtxWrapper(n) {
			for _, pos := range n.NewContexts {
				p.Reportf(n.Pkg, pos,
					"context.Background/TODO on a distance-evaluating path in %s; accept and forward the caller's ctx",
					n.Name())
			}
		}
		if n.CtxParam != nil && !n.CtxParamUsed && reachesSink[n] && !n.Pkg.IsCommand() {
			p.Reportf(n.Pkg, n.CtxParam.Pos(),
				"context parameter of %s is dropped: never forwarded or checked on a distance-evaluating path",
				n.Name())
		}
	}
}

// isCtxWrapper reports the convenience-wrapper idiom: the body directly
// calls a context-taking sibling named <Name>Context (the public lan
// package's Search -> SearchContext pairs), which is where the real
// contextful implementation lives.
func isCtxWrapper(n *FuncNode) bool {
	for _, c := range n.Calls {
		if c.Callee.Name() != n.Name()+"Context" {
			continue
		}
		sig, ok := c.Callee.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	return false
}

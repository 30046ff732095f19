package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotPathMarker is the annotation that roots a hotalloc region. It is a
// directive-style comment placed in the doc group of a function
// declaration:
//
//	//lan:hotpath
//	func (c *beamCtx) run(...) { ... }
//
// The marked function and every function it (transitively, statically)
// calls inside the module form the hot region; see hotalloc.go for the
// allocation rules enforced there.
const hotPathMarker = "//lan:hotpath"

// FuncNode is one module function or method in the call graph. Function
// literals do not get nodes of their own: their bodies — calls, panics,
// context creations — are attributed to the enclosing declaration, which
// matches how the invariants are stated ("ShardedIndex.SearchContext must not leak
// goroutines" covers the closures it spawns).
type FuncNode struct {
	// Key is the stable cross-package identifier, "pkgpath.Name" for
	// functions and "pkgpath.Recv.Name" for methods.
	Key string
	// Obj is the type-checker object; thanks to the shared-identity loader
	// it is the same pointer wherever the function is referenced.
	Obj  *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// CtxParam is the function's context.Context parameter, nil when it
	// has none. CtxParamUsed reports whether the body references it.
	CtxParam     *types.Var
	CtxParamUsed bool
	// CtxField reports a method whose receiver struct holds a
	// context.Context field (the router pattern: the context rides on the
	// per-query struct instead of every method signature).
	CtxField bool
	// HotPath reports a //lan:hotpath annotation on the declaration.
	HotPath bool

	// Calls are the outgoing edges in source order.
	Calls []CallSite
	// Panics are the positions of builtin panic(...) calls in the body.
	Panics []token.Pos
	// NewContexts are the positions of context.Background()/TODO() calls.
	NewContexts []token.Pos
}

// Name returns the function's bare name.
func (n *FuncNode) Name() string { return n.Obj.Name() }

// CarriesContext reports whether a context can reach the function without
// a signature change: it either takes one as a parameter or is a method on
// a context-carrying struct.
func (n *FuncNode) CarriesContext() bool { return n.CtxParam != nil || n.CtxField }

// CallSite is one outgoing call edge.
type CallSite struct {
	// Key is the callee's FuncNode key (also computed for callees outside
	// the module, which have no node).
	Key string
	// Callee is the invoked *types.Func: the concrete function for static
	// calls, the interface method for dynamic ones.
	Callee *types.Func
	Pos    token.Pos
	// Dynamic marks interface dispatch: both the edge to the interface
	// method itself and the class-hierarchy-analysis edges to its module
	// implementations. Analyzers choose per invariant whether to follow
	// them (libpanic does, ctxprop does not).
	Dynamic bool
}

// CallGraph is the module-wide call graph over every loaded package.
type CallGraph struct {
	// Nodes maps FuncNode keys to nodes, one per declared module function.
	Nodes map[string]*FuncNode
	byObj map[*types.Func]*FuncNode
}

// Node returns the node for key, or nil.
func (g *CallGraph) Node(key string) *FuncNode { return g.Nodes[key] }

// NodeOf returns the node declaring fn, or nil for functions outside the
// loaded packages (stdlib, interface methods).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.byObj[fn] }

// ReachableFrom returns the forward closure of roots over call edges,
// following dynamic (interface/CHA) edges only when includeDynamic is set.
// The map value is the root that first reached the node (roots map to
// themselves) — the provenance analyzers put in their messages. Traversal
// is breadth-first from roots in the given order, so provenance is
// deterministic when the caller passes a deterministically ordered root
// slice. Only module functions appear: edges into the standard library
// vanish because their targets have no nodes.
func (g *CallGraph) ReachableFrom(roots []*FuncNode, includeDynamic bool) map[*FuncNode]*FuncNode {
	reach := make(map[*FuncNode]*FuncNode)
	var queue []*FuncNode
	for _, r := range roots {
		if r != nil && reach[r] == nil {
			reach[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if c.Dynamic && !includeDynamic {
				continue
			}
			callee := g.NodeOf(c.Callee)
			if callee == nil || reach[callee] != nil {
				continue
			}
			reach[callee] = reach[n]
			queue = append(queue, callee)
		}
	}
	return reach
}

// SortedNodes returns every node ordered by key, for deterministic
// iteration (Nodes is a map).
func (g *CallGraph) SortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key < nodes[j].Key })
	return nodes
}

// funcKey builds the stable identifier for fn: "pkgpath.Name" for package
// functions, "pkgpath.Recv.Name" for methods (pointerness stripped, so a
// value and pointer method of one type cannot collide only because Go
// forbids declaring both with the same name).
func funcKey(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		recv := "?"
		if n, isNamed := t.(*types.Named); isNamed {
			recv = n.Obj().Name()
		}
		return pkgPath + "." + recv + "." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// BuildCallGraph constructs the module call graph from the loaded
// packages. It runs two passes: the first declares a node per function and
// collects the named types used for class-hierarchy analysis, the second
// extracts call edges (static calls directly; interface calls as a dynamic
// edge to the interface method plus dynamic edges to every module type
// that implements the interface).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	b := &builder{
		graph:     &CallGraph{Nodes: make(map[string]*FuncNode), byObj: make(map[*types.Func]*FuncNode)},
		implCache: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		b.declarePackage(pkg)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, isFn := pkg.Info.Defs[fd.Name].(*types.Func); isFn {
					if node := b.graph.byObj[obj]; node != nil {
						b.addEdges(node, fd.Body, pkg)
					}
				}
			}
		}
	}
	return b.graph
}

type builder struct {
	graph *CallGraph
	// namedTypes are the module's non-interface named types, in
	// deterministic (package load, then scope name) order — the CHA
	// candidate set.
	namedTypes []*types.Named
	// implCache memoizes interface method -> implementing module methods.
	implCache map[*types.Func][]*types.Func
}

func (b *builder) declarePackage(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, isNamed := tn.Type().(*types.Named); isNamed && !types.IsInterface(named) {
			b.namedTypes = append(b.namedTypes, named)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, isFn := pkg.Info.Defs[fd.Name].(*types.Func)
			if !isFn {
				continue
			}
			node := &FuncNode{
				Key:     funcKey(obj),
				Obj:     obj,
				Pkg:     pkg,
				Decl:    fd,
				HotPath: hasHotPathMarker(fd),
			}
			if sig, isSig := obj.Type().(*types.Signature); isSig {
				params := sig.Params()
				for i := 0; i < params.Len(); i++ {
					if isContextType(params.At(i).Type()) {
						node.CtxParam = params.At(i)
						break
					}
				}
				if recv := sig.Recv(); recv != nil {
					node.CtxField = hasContextField(recv.Type())
				}
			}
			b.graph.Nodes[node.Key] = node
			b.graph.byObj[obj] = node
		}
	}
}

func hasHotPathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathMarker {
			return true
		}
	}
	return false
}

// hasContextField reports whether the (possibly pointer) receiver type is
// a struct with a context.Context field.
func hasContextField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// addEdges walks one declaration body (nested function literals included)
// and records call edges, panic sites, context creations and context-param
// uses on node.
func (b *builder) addEdges(node *FuncNode, body ast.Node, pkg *Package) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && node.CtxParam != nil {
			if pkg.Info.Uses[id] == node.CtxParam {
				node.CtxParamUsed = true
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch obj := pkg.Info.Uses[fun].(type) {
			case *types.Builtin:
				if obj.Name() == "panic" {
					node.Panics = append(node.Panics, call.Pos())
				}
			case *types.Func:
				node.Calls = append(node.Calls, CallSite{Key: funcKey(obj), Callee: obj, Pos: call.Pos()})
			}
		case *ast.SelectorExpr:
			if sel, isSel := pkg.Info.Selections[fun]; isSel && sel.Kind() == types.MethodVal {
				fn, isFn := sel.Obj().(*types.Func)
				if !isFn {
					return true
				}
				if types.IsInterface(sel.Recv()) {
					node.Calls = append(node.Calls, CallSite{Key: funcKey(fn), Callee: fn, Pos: call.Pos(), Dynamic: true})
					for _, impl := range b.implementers(fn) {
						node.Calls = append(node.Calls, CallSite{Key: funcKey(impl), Callee: impl, Pos: call.Pos(), Dynamic: true})
					}
				} else {
					node.Calls = append(node.Calls, CallSite{Key: funcKey(fn), Callee: fn, Pos: call.Pos()})
				}
				return true
			}
			// Qualified package call: pkg.Func(...).
			if fn, isFn := pkg.Info.Uses[fun.Sel].(*types.Func); isFn {
				node.Calls = append(node.Calls, CallSite{Key: funcKey(fn), Callee: fn, Pos: call.Pos()})
				if p := fn.Pkg(); p != nil && p.Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					node.NewContexts = append(node.NewContexts, call.Pos())
				}
			}
		}
		return true
	})
}

// implementers resolves an interface method to the module methods that can
// satisfy it (class hierarchy analysis): every module named type whose
// value or pointer method set implements the interface contributes its
// method of that name.
func (b *builder) implementers(ifaceFn *types.Func) []*types.Func {
	if impls, ok := b.implCache[ifaceFn]; ok {
		return impls
	}
	var impls []*types.Func
	sig, isSig := ifaceFn.Type().(*types.Signature)
	if isSig && sig.Recv() != nil {
		if iface, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface && iface.NumMethods() > 0 {
			for _, named := range b.namedTypes {
				var impl types.Type
				if types.Implements(types.NewPointer(named), iface) {
					impl = types.NewPointer(named)
				} else if types.Implements(named, iface) {
					impl = named
				}
				if impl == nil {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceFn.Pkg(), ifaceFn.Name())
				if m, isFn := obj.(*types.Func); isFn {
					impls = append(impls, m)
				}
			}
		}
	}
	b.implCache[ifaceFn] = impls
	return impls
}

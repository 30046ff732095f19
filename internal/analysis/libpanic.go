package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LibPanic flags panic calls in the importable public packages (the root
// lan package, ged, graph, lanio, lanserve — everything outside internal/
// that is not a command). A panic in a public code path turns a caller's
// bad input into a process abort, which is hostile for a library; such
// sites must return errors instead.
//
// Internal packages are out of scope: there a panic is the documented
// numpy-style shape-check contract (mat) or a corruption abort
// (lanstore), lanserve turns a panic under a request into a 500, and
// core.Build recovers one from the ranker's training goroutine.
//
// Escape hatches: functions named Must* follow the stdlib convention of
// documented panicking wrappers, and deliberate invariant checks
// ("impossible unless the index is corrupt") may carry
// //lint:allow libpanic with a justification at the panic site.
var LibPanic = &Analyzer{
	Name: "libpanic",
	Doc:  "flags panic(...) in public (non-internal, non-main) packages",
	Run:  runLibPanic,
}

func runLibPanic(pass *Pass) {
	if !pass.IsPublicLibrary() {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			ident, ok := call.Fun.(*ast.Ident)
			if !ok || ident.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[ident].(*types.Builtin); !isBuiltin {
				return true
			}
			if fn := enclosingFuncName(pass.Files, call.Pos()); strings.HasPrefix(fn, "Must") {
				return true
			}
			pass.Reportf(call.Pos(), "panic in public package %s; return an error (or name the function Must*)", pass.Path)
			return true
		})
	}
}

package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// obsPkgPath is the observability package whose registration call sites
// MetricName checks.
const obsPkgPath = "github.com/lansearch/lan/internal/obs"

// MetricName enforces the repo's metric naming convention at every
// obs.Registry registration site (Counter, CounterVec, CounterFunc,
// CounterVecFunc, Gauge, GaugeFunc, Histogram, Info):
//
//   - the name is a compile-time string constant — dynamic names defeat
//     both this check and dashboard greppability;
//   - it matches lan_<subsystem>_<name>_<unit> (lowercase snake case
//     starting with "lan"; "lanserve_..." satisfies this, the subsystem
//     is fused into the prefix);
//   - counter families end in _total and nothing else does;
//   - each name is registered at exactly one call site per package, so a
//     family has a single owner (the registry's runtime idempotence is a
//     safety net, not a license to scatter registrations).
//
// Module-wide, it additionally flags dead families: a Counter, CounterVec,
// Gauge or Histogram whose handle (the variable or struct field the
// registration result is assigned to) is never touched again anywhere in
// the module is registered but can never move — it silently exports a
// frozen zero, which reads as "nothing happened" on a dashboard when the
// truth is "nothing was instrumented". Callback-driven families
// (CounterFunc, CounterVecFunc, GaugeFunc, Info) are exempt: registration
// alone makes them live. A registration whose result is discarded outright
// is dead on arrival.
var MetricName = &Analyzer{
	Name:      "metricname",
	Doc:       "enforces lan_<subsystem>_<name>_<unit> metric names, one registration site per family, and no dead families",
	Run:       runMetricName,
	RunGlobal: runMetricDead,
}

var metricNameRE = regexp.MustCompile(`^lan[a-z0-9]*(_[a-z0-9]+)+$`)

// registryCounterMethods are the obs.Registry methods that register
// counter families; the remaining registryMethods register non-counters.
var registryCounterMethods = map[string]bool{
	"Counter": true, "CounterVec": true, "CounterFunc": true, "CounterVecFunc": true,
}

var registryMethods = map[string]bool{
	"Counter": true, "CounterVec": true, "CounterFunc": true, "CounterVecFunc": true,
	"Gauge": true, "GaugeFunc": true, "Histogram": true, "Info": true,
}

func runMetricName(pass *Pass) {
	seen := make(map[string]token.Position)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := registryMethodName(pass.Info, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, isConst := stringConstant(pass.Info, call.Args[0])
			if !isConst {
				pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time string constant")
				return true
			}
			if !metricNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q does not match lan_<subsystem>_<name>_<unit> (lowercase snake case starting with lan)", name)
			}
			if registryCounterMethods[method] {
				if !strings.HasSuffix(name, "_total") {
					pass.Reportf(call.Args[0].Pos(), "counter %q must end in _total", name)
				}
			} else if strings.HasSuffix(name, "_total") {
				pass.Reportf(call.Args[0].Pos(), "%s %q must not end in _total (reserved for counters)", strings.ToLower(method), name)
			}
			if first, dup := seen[name]; dup {
				pass.Reportf(call.Args[0].Pos(), "metric %q registered more than once in this package (first at %s:%d)", name, first.Filename, first.Line)
			} else {
				seen[name] = pass.Fset.Position(call.Args[0].Pos())
			}
			return true
		})
	}
}

// registryMethodName returns the obs.Registry registration method invoked
// by call, or ok=false when call is not a registration.
func registryMethodName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// stringConstant evaluates e as a compile-time string constant.
func stringConstant(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// slogEmitMethods are the log/slog emission calls SlogQID checks; With,
// WithGroup and handler plumbing are construction, not emission.
var slogEmitMethods = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
	"Log": true, "LogAttrs": true,
}

// slogQueryIDAttr is the attribute every serve-path log record must carry
// so logs join against traces, exemplars and /debug/trace/<id>.
const slogQueryIDAttr = "query_id"

// SlogQID rides with MetricName as the second observability-contract
// analyzer: on the serve path (packages whose import path contains
// "lanserve"), every log/slog emission must carry a query_id attribute.
// A slow-query warning or search failure that cannot be joined to its
// trace and exemplar is an observability dead end — the operator sees
// "something was slow" with no handle to pull. Non-query log sites
// (startup, metrics exposition, shutdown) opt out with
// //lint:allow slogqid <reason>.
var SlogQID = &Analyzer{
	Name: "slogqid",
	Doc:  "serve-path slog calls must carry the query_id attribute so logs join traces and exemplars",
	Run:  runSlogQID,
}

func runSlogQID(pass *Pass) {
	if !strings.Contains(pass.Path, "lanserve") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slogEmitMethods[sel.Sel.Name] || !isSlogEmitter(pass.Info, sel) {
				return true
			}
			hasQID := false
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok {
						if s, isConst := stringConstant(pass.Info, e); isConst && s == slogQueryIDAttr {
							hasQID = true
						}
					}
					return !hasQID
				})
				if hasQID {
					break
				}
			}
			if !hasQID {
				pass.Reportf(call.Pos(), "slog %s on the serve path omits the %s attribute (logs must join traces and exemplars)", sel.Sel.Name, slogQueryIDAttr)
			}
			return true
		})
	}
}

// isSlogEmitter reports whether sel selects off the log/slog package
// itself or a value of type (*)slog.Logger; unrelated types that happen
// to have Info/Warn/... methods are not emitters.
func isSlogEmitter(info *types.Info, sel *ast.SelectorExpr) bool {
	if id, ok := sel.X.(*ast.Ident); ok && usesPackage(info, id, "log/slog") {
		return true
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Logger" && obj.Pkg() != nil && obj.Pkg().Path() == "log/slog"
}

// deadCheckedMethods are the hand-driven registration methods subject to
// the dead-family sweep.
var deadCheckedMethods = map[string]bool{
	"Counter": true, "CounterVec": true, "Gauge": true, "Histogram": true,
}

// runMetricDead is the module-wide dead-family sweep: it resolves each
// hand-driven registration to the handle object it feeds (package var,
// local var, or struct field — identities are module-wide thanks to the
// shared-checker loader), then scans every package for any other use of
// that handle.
func runMetricDead(p *GlobalPass) {
	type registration struct {
		pkg  *Package
		pos  token.Pos
		name string
	}
	var order []types.Object
	regs := make(map[types.Object]registration)
	self := make(map[*ast.Ident]bool)

	record := func(pkg *Package, target *ast.Ident, obj types.Object, call *ast.CallExpr) {
		if obj == nil {
			return
		}
		self[target] = true
		if _, dup := regs[obj]; dup {
			return
		}
		name, _ := stringConstant(pkg.Info, call.Args[0])
		regs[obj] = registration{pkg: pkg, pos: call.Pos(), name: name}
		order = append(order, obj)
	}
	isDeadChecked := func(pkg *Package, e ast.Expr) (*ast.CallExpr, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return nil, false
		}
		method, ok := registryMethodName(pkg.Info, call)
		return call, ok && deadCheckedMethods[method]
	}

	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := isDeadChecked(pkg, n.X); ok {
						name, _ := stringConstant(pkg.Info, call.Args[0])
						p.Reportf(pkg, call.Pos(), "metric %q is registered but its handle is discarded (dead family); keep it and record to it", name)
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, rhs := range n.Rhs {
						call, ok := isDeadChecked(pkg, rhs)
						if !ok {
							continue
						}
						switch lhs := ast.Unparen(n.Lhs[i]).(type) {
						case *ast.Ident:
							if lhs.Name == "_" {
								name, _ := stringConstant(pkg.Info, call.Args[0])
								p.Reportf(pkg, call.Pos(), "metric %q is registered but its handle is discarded (dead family); keep it and record to it", name)
								continue
							}
							obj := pkg.Info.Defs[lhs]
							if obj == nil {
								obj = pkg.Info.Uses[lhs]
							}
							record(pkg, lhs, obj, call)
						case *ast.SelectorExpr:
							record(pkg, lhs.Sel, pkg.Info.Uses[lhs.Sel], call)
						}
					}
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if call, ok := isDeadChecked(pkg, v); ok && i < len(n.Names) {
							record(pkg, n.Names[i], pkg.Info.Defs[n.Names[i]], call)
						}
					}
				case *ast.KeyValueExpr:
					if call, ok := isDeadChecked(pkg, n.Value); ok {
						if key, isIdent := n.Key.(*ast.Ident); isIdent {
							record(pkg, key, pkg.Info.Uses[key], call)
						}
					}
				}
				return true
			})
		}
	}
	if len(regs) == 0 {
		return
	}

	alive := make(map[types.Object]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || self[id] {
					return true
				}
				if obj := pkg.Info.Uses[id]; obj != nil {
					if _, registered := regs[obj]; registered {
						alive[obj] = true
					}
				}
				return true
			})
		}
	}
	for _, obj := range order {
		if alive[obj] {
			continue
		}
		r := regs[obj]
		p.Reportf(r.pkg, r.pos,
			"metric %q is registered into %s but never incremented, observed or read anywhere in the module (dead family)",
			r.name, obj.Name())
	}
}

package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// matPkgPath is the matrix kernel package whose call sites MatDim checks.
const matPkgPath = "github.com/lansearch/lan/internal/mat"

// MatDim flags internal/mat kernel calls whose dimension arguments are
// provably inconsistent under local constant propagation: negative
// literal shapes, FromSlice literals whose element count does not match
// rows*cols, and Mul/MulT/TMul/Add/Sub/Hadamard calls whose operand
// shapes — tracked through single-assignment locals from constructor
// calls — cannot conform. The kernels panic on these mistakes at run
// time (the documented contract of internal/mat); this analyzer moves
// the provable subset of those panics to lint time.
//
// The propagation is deliberately conservative: a local's shape is
// tracked only if the variable is assigned exactly once, from a mat
// constructor or kernel call with fully known dimensions, and none of
// its fields are ever written. Anything else is unknown and never
// reported.
var MatDim = &Analyzer{
	Name: "matdim",
	Doc:  "flags internal/mat calls with provably inconsistent dimensions (local constant propagation)",
	Run:  runMatDim,
}

// matShape is a possibly-unknown (rows, cols) pair.
type matShape struct {
	rows, cols matDimVal
}

type matDimVal struct {
	known bool
	v     int64
}

func dimOf(v int64) matDimVal { return matDimVal{known: true, v: v} }

func runMatDim(pass *Pass) {
	if pass.Path == matPkgPath {
		// The kernels' own implementation compares shapes freely.
		return
	}
	for _, f := range pass.Files {
		if !importsPath(f, matPkgPath) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			(&matDimChecker{pass: pass}).checkFunc(fd)
		}
	}
}

func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"`+path+`"` {
			return true
		}
	}
	return false
}

type matDimChecker struct {
	pass   *Pass
	shapes map[types.Object]matShape
}

func (c *matDimChecker) checkFunc(fd *ast.FuncDecl) {
	c.shapes = make(map[types.Object]matShape)
	multi := c.multiAssigned(fd.Body)

	// ast.Inspect visits in source order, so a variable's recorded shape
	// is available to every later use within the function.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.Info.Defs[ident]
				if obj == nil || multi[obj] {
					continue
				}
				if sh, ok := c.exprShape(n.Rhs[i]); ok {
					c.shapes[obj] = sh
				}
			}
		}
		return true
	})
}

// multiAssigned returns the objects that are written more than once (a
// definition plus any plain assignment, including field writes), which
// the propagation refuses to track.
func (c *matDimChecker) multiAssigned(body *ast.BlockStmt) map[types.Object]bool {
	multi := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			switch lhs := lhs.(type) {
			case *ast.Ident:
				if obj := c.pass.Info.Uses[lhs]; obj != nil {
					multi[obj] = true
				}
			case *ast.SelectorExpr:
				if ident, ok := lhs.X.(*ast.Ident); ok {
					if obj := c.pass.Info.Uses[ident]; obj != nil {
						multi[obj] = true
					}
				}
			}
		}
		return true
	})
	return multi
}

// matFunc returns the internal/mat function name called by e, or "".
func (c *matDimChecker) matFunc(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok || !usesPackage(c.pass.Info, ident, matPkgPath) {
		return ""
	}
	return sel.Sel.Name
}

// checkCall reports provable dimension inconsistencies of one call.
func (c *matDimChecker) checkCall(call *ast.CallExpr) {
	switch c.matFunc(call.Fun) {
	case "New", "Randn":
		if len(call.Args) < 2 {
			return
		}
		r, rok := c.constInt(call.Args[0])
		cc, cok := c.constInt(call.Args[1])
		if rok && r < 0 || cok && cc < 0 {
			c.pass.Reportf(call.Pos(), "mat shape (%s, %s) has a negative dimension", c.dimStr(r, rok), c.dimStr(cc, cok))
		}
	case "FromSlice":
		if len(call.Args) != 3 {
			return
		}
		r, rok := c.constInt(call.Args[0])
		cc, cok := c.constInt(call.Args[1])
		if !rok || !cok {
			return
		}
		if r < 0 || cc < 0 {
			c.pass.Reportf(call.Pos(), "mat shape (%d, %d) has a negative dimension", r, cc)
			return
		}
		n, ok := literalLen(call.Args[2])
		if ok && int64(n) != r*cc {
			c.pass.Reportf(call.Pos(), "mat.FromSlice: %d values for a %dx%d matrix (want %d)", n, r, cc, r*cc)
		}
	case "Mul":
		c.checkPair(call, "mat.Mul", func(a, b matShape) (matDimVal, matDimVal) { return a.cols, b.rows })
	case "MulT":
		c.checkPair(call, "mat.MulT", func(a, b matShape) (matDimVal, matDimVal) { return a.cols, b.cols })
	case "TMul":
		c.checkPair(call, "mat.TMul", func(a, b matShape) (matDimVal, matDimVal) { return a.rows, b.rows })
	case "MulInto":
		c.checkInto(call, "mat.MulInto",
			func(a, b matShape) (matDimVal, matDimVal) { return a.cols, b.rows },
			func(a, b matShape) matShape { return matShape{rows: a.rows, cols: b.cols} })
	case "MulTInto":
		c.checkInto(call, "mat.MulTInto",
			func(a, b matShape) (matDimVal, matDimVal) { return a.cols, b.cols },
			func(a, b matShape) matShape { return matShape{rows: a.rows, cols: b.rows} })
	case "TMulInto":
		c.checkInto(call, "mat.TMulInto",
			func(a, b matShape) (matDimVal, matDimVal) { return a.rows, b.rows },
			func(a, b matShape) matShape { return matShape{rows: a.cols, cols: b.cols} })
	case "Add", "Sub", "Hadamard":
		if len(call.Args) != 2 {
			return
		}
		a, aok := c.exprShape(call.Args[0])
		b, bok := c.exprShape(call.Args[1])
		if !aok || !bok {
			return
		}
		if dimsConflict(a.rows, b.rows) || dimsConflict(a.cols, b.cols) {
			c.pass.Reportf(call.Pos(), "elementwise mat op on %s and %s matrices", shapeStr(a), shapeStr(b))
		}
	}
}

// checkPair reports when the two dimensions that a product-style kernel
// requires to be equal are provably different.
func (c *matDimChecker) checkPair(call *ast.CallExpr, name string, pick func(a, b matShape) (matDimVal, matDimVal)) {
	if len(call.Args) != 2 {
		return
	}
	a, aok := c.exprShape(call.Args[0])
	b, bok := c.exprShape(call.Args[1])
	if !aok || !bok {
		return
	}
	da, db := pick(a, b)
	if dimsConflict(da, db) {
		c.pass.Reportf(call.Pos(), "%s: inner dimensions %d and %d of %s and %s do not conform", name, da.v, db.v, shapeStr(a), shapeStr(b))
	}
}

// checkInto reports the two provable mistakes of a destination-reusing
// kernel: non-conforming operands (same rule as the allocating variant)
// and a destination whose shape cannot hold the product.
func (c *matDimChecker) checkInto(call *ast.CallExpr, name string, pick func(a, b matShape) (matDimVal, matDimVal), prod func(a, b matShape) matShape) {
	if len(call.Args) != 3 {
		return
	}
	a, aok := c.exprShape(call.Args[1])
	b, bok := c.exprShape(call.Args[2])
	if !aok || !bok {
		return
	}
	da, db := pick(a, b)
	if dimsConflict(da, db) {
		c.pass.Reportf(call.Pos(), "%s: inner dimensions %d and %d of %s and %s do not conform", name, da.v, db.v, shapeStr(a), shapeStr(b))
		return
	}
	dst, dok := c.exprShape(call.Args[0])
	if !dok {
		return
	}
	p := prod(a, b)
	if dimsConflict(dst.rows, p.rows) || dimsConflict(dst.cols, p.cols) {
		c.pass.Reportf(call.Pos(), "%s: destination %s for a %s product", name, shapeStr(dst), shapeStr(p))
	}
}

func dimsConflict(a, b matDimVal) bool { return a.known && b.known && a.v != b.v }

// exprShape derives the (rows, cols) of a matrix-typed expression when
// the local propagation can prove it.
func (c *matDimChecker) exprShape(e ast.Expr) (matShape, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.Info.Uses[e]
		if obj == nil {
			return matShape{}, false
		}
		sh, ok := c.shapes[obj]
		return sh, ok
	case *ast.ParenExpr:
		return c.exprShape(e.X)
	case *ast.CallExpr:
		return c.callShape(e)
	}
	return matShape{}, false
}

// callShape derives the result shape of a mat constructor or kernel call.
func (c *matDimChecker) callShape(call *ast.CallExpr) (matShape, bool) {
	// x.Clone() preserves x's shape.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" && len(call.Args) == 0 {
		if ident, ok := sel.X.(*ast.Ident); ok {
			return c.exprShape(ident)
		}
	}
	name := c.matFunc(call.Fun)
	argShape := func(i int) (matShape, bool) {
		if i >= len(call.Args) {
			return matShape{}, false
		}
		return c.exprShape(call.Args[i])
	}
	switch name {
	case "New", "Randn", "FromSlice":
		if len(call.Args) < 2 {
			return matShape{}, false
		}
		r, rok := c.constInt(call.Args[0])
		cc, cok := c.constInt(call.Args[1])
		if !rok || !cok || r < 0 || cc < 0 {
			return matShape{}, false
		}
		return matShape{rows: dimOf(r), cols: dimOf(cc)}, true
	case "Mul":
		a, aok := argShape(0)
		b, bok := argShape(1)
		if aok && bok {
			return matShape{rows: a.rows, cols: b.cols}, true
		}
	case "MulT":
		a, aok := argShape(0)
		b, bok := argShape(1)
		if aok && bok {
			return matShape{rows: a.rows, cols: b.rows}, true
		}
	case "TMul":
		a, aok := argShape(0)
		b, bok := argShape(1)
		if aok && bok {
			return matShape{rows: a.cols, cols: b.cols}, true
		}
	case "MulInto":
		a, aok := argShape(1)
		b, bok := argShape(2)
		if aok && bok {
			return matShape{rows: a.rows, cols: b.cols}, true
		}
	case "MulTInto":
		a, aok := argShape(1)
		b, bok := argShape(2)
		if aok && bok {
			return matShape{rows: a.rows, cols: b.rows}, true
		}
	case "TMulInto":
		a, aok := argShape(1)
		b, bok := argShape(2)
		if aok && bok {
			return matShape{rows: a.cols, cols: b.cols}, true
		}
	case "Add", "Sub", "Hadamard":
		if a, ok := argShape(0); ok {
			return a, true
		}
		return argShape(1)
	case "Scale":
		return argShape(0)
	case "Transpose":
		if a, ok := argShape(0); ok {
			return matShape{rows: a.cols, cols: a.rows}, true
		}
	}
	return matShape{}, false
}

// constInt evaluates e as a compile-time integer constant.
func (c *matDimChecker) constInt(e ast.Expr) (int64, bool) {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// literalLen counts the elements of a positional composite literal such
// as []float64{1, 2, 3}. Keyed literals (sparse index syntax) are not
// countable positionally and return ok=false.
func literalLen(e ast.Expr) (int, bool) {
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return 0, false
	}
	for _, el := range cl.Elts {
		if _, keyed := el.(*ast.KeyValueExpr); keyed {
			return 0, false
		}
	}
	return len(cl.Elts), true
}

func (c *matDimChecker) dimStr(v int64, known bool) string {
	if !known {
		return "?"
	}
	return constant.MakeInt64(v).ExactString()
}

func shapeStr(s matShape) string {
	return c2s(s.rows) + "x" + c2s(s.cols)
}

func c2s(d matDimVal) string {
	if !d.known {
		return "?"
	}
	return constant.MakeInt64(d.v).ExactString()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape guards sync.Pool scratch arenas (DESIGN.md §11): a value
// obtained from (*sync.Pool).Get must stay inside the function that got
// it. Two ways out are flagged —
// appearing in a return statement (the caller would hold an object the
// pool may hand to a concurrent goroutine the moment anyone Puts it), and
// any use after the matching Put (the object may already be another
// goroutine's scratch space by then, so reads are torn and writes corrupt
// a live count).
//
// The Facts phase exports PoolPuts for every function that Puts one of its
// parameters, so handing a Get'd value to a recycling helper counts as the
// Put and later uses are still caught.
var PoolEscape = &Analyzer{
	Name:  "poolescape",
	Doc:   "flags sync.Pool values escaping via return or used after Put",
	Facts: factsPoolEscape,
	Run:   runPoolEscape,
}

func factsPoolEscape(pass *Pass) {
	info := pass.Pkg.Info
	pass.Inspector().Preorder(KindFuncDecl, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		fn := funcDeclObj(info, fd)
		if fn == nil {
			return
		}
		var params []int
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, typ, method, ok := syncCall(info, call); !ok || typ != "Pool" || method != "Put" || len(call.Args) != 1 {
				return true
			}
			arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			if i := paramIndex(fn, identObj(info, arg)); i >= 0 {
				params = append(params, i)
			}
			return true
		})
		if len(params) > 0 {
			pass.ExportObjectFact(fn, PoolPuts{Params: params})
		}
	})
}

func runPoolEscape(pass *Pass) {
	pass.Inspector().Preorder(KindFuncDecl, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		w := &poolWalker{pass: pass, fromPool: map[types.Object]bool{}, putAt: map[types.Object]token.Pos{}}
		ast.Inspect(fd.Body, w.visit)
	})
}

// poolWalker tracks, in source order within one function, which locals
// hold a pool-obtained value and where each was returned to its pool.
type poolWalker struct {
	pass     *Pass
	fromPool map[types.Object]bool
	putAt    map[types.Object]token.Pos
}

func (w *poolWalker) visit(n ast.Node) bool {
	info := w.pass.Pkg.Info
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return true
		}
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(info, id)
			if obj == nil {
				continue
			}
			if isPoolGet(info, n.Rhs[i]) {
				w.fromPool[obj] = true
				delete(w.putAt, obj)
			} else {
				delete(w.fromPool, obj)
				delete(w.putAt, obj)
			}
		}
	case *ast.DeferStmt:
		// A deferred Put runs on return: uses between the defer and the
		// return are fine, so the call must not mark the value recycled.
		// Returning the value still escapes, which the ReturnStmt case
		// catches via fromPool.
		return false
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			escaper := escapingIdent(res)
			ast.Inspect(res, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := identObj(info, id)
				if obj == nil {
					return true
				}
				if at, ok := w.putAt[obj]; ok && id.Pos() > at {
					w.pass.Reportf(id.Pos(), "%s is used after being returned to its sync.Pool; it may already be another goroutine's scratch space", id.Name)
					delete(w.putAt, obj)
				} else if w.fromPool[obj] && id == escaper {
					w.pass.Reportf(id.Pos(), "%s was obtained from a sync.Pool and escapes via return; the pool may hand it to a concurrent goroutine", id.Name)
				}
				return true
			})
		}
		return false
	case *ast.CallExpr:
		if _, typ, method, ok := syncCall(info, n); ok && typ == "Pool" && method == "Put" && len(n.Args) == 1 {
			if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil && w.fromPool[obj] {
					w.putAt[obj] = n.End()
				}
			}
			return true
		}
		if f := calleeFunc(info, n); f != nil {
			var puts PoolPuts
			if w.pass.ImportObjectFact(f, &puts) {
				for _, pi := range puts.Params {
					if pi >= len(n.Args) {
						continue
					}
					if id, ok := ast.Unparen(n.Args[pi]).(*ast.Ident); ok {
						if obj := identObj(info, id); obj != nil && w.fromPool[obj] {
							w.putAt[obj] = n.End()
						}
					}
				}
			}
		}
	case *ast.Ident:
		obj := identObj(info, n)
		if obj == nil {
			return true
		}
		if at, ok := w.putAt[obj]; ok && n.Pos() > at {
			w.pass.Reportf(n.Pos(), "%s is used after being returned to its sync.Pool; it may already be another goroutine's scratch space", n.Name)
			delete(w.putAt, obj) // one report per Put
		}
	}
	return true
}

// escapingIdent returns the identifier a return expression hands out whole
// — `return b` or `return &b` — as opposed to a value copied out of it
// (`return b.n` copies a scalar, which does not alias the pooled object).
// Slice or pointer fields copied out still alias, but flagging every field
// read would drown the real escapes; the Put-ordering check still covers
// those uses.
func escapingIdent(res ast.Expr) *ast.Ident {
	e := ast.Unparen(res)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, _ := e.(*ast.Ident)
	return id
}

// isPoolGet reports whether e is (possibly behind parens and a type
// assertion) a call to (*sync.Pool).Get.
func isPoolGet(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, typ, method, ok := syncCall(info, call)
	return ok && typ == "Pool" && method == "Get"
}

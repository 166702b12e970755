package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Well-known package paths the analyzers key on.
const (
	rmaPath  = "mpi3rma/rma"
	corePath = "mpi3rma/internal/core"
)

// callee resolves the *types.Func a call invokes, or nil for calls through
// function values, conversions, and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcKey names a function as "pkgpath.Name" or a method as
// "pkgpath.Recv.Name", the form the analyzers' tables use.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// calleeKey combines callee and funcKey.
func calleeKey(info *types.Info, call *ast.CallExpr) string {
	return funcKey(callee(info, call))
}

// intConst constant-folds expr to an int64 using the type checker's
// constant propagation (covers literals, named constants, and constant
// arithmetic).
func intConst(info *types.Info, expr ast.Expr) (int64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// dtypeExtent resolves a datatype expression to its byte extent when it is
// one of the predefined primitive types (rma.Byte, rma.Int64, ...,
// referenced directly or through internal/datatype). Derived layouts
// return ok=false.
func dtypeExtent(info *types.Info, expr ast.Expr) (int64, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return 0, false
	}
	switch obj.Pkg().Path() {
	case rmaPath, "mpi3rma/internal/datatype":
	default:
		return 0, false
	}
	switch obj.Name() {
	case "Byte":
		return 1, true
	case "Int32", "Float32":
		return 4, true
	case "Int64", "Float64":
		return 8, true
	}
	return 0, false
}

// attrHasBit reports whether arg is a constant expression of type
// core.Attr whose value has the named attribute bit set. The bit's value
// is read from the core package's own constant (reached through the
// argument's type), so the analyzers never hardcode it.
func attrHasBit(info *types.Info, arg ast.Expr, constName string) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != corePath || obj.Name() != "Attr" {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return false
	}
	c, ok := obj.Pkg().Scope().Lookup(constName).(*types.Const)
	if !ok {
		return false
	}
	bit, exact := constant.Int64Val(constant.ToInt(c.Val()))
	if !exact {
		return false
	}
	return v&bit != 0
}

// mentionsCoreName reports whether the expression references the named
// object from internal/core anywhere — the non-folding fallback for attrs
// built at runtime from core.Attr constants.
func mentionsCoreName(info *types.Info, arg ast.Expr, name string) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == corePath && obj.Name() == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// objectOf resolves an identifier expression to its object (through Uses),
// or nil for anything that is not a plain identifier.
func objectOf(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// optionCalls yields the option-constructor calls among an argument list:
// each arg that is a call to a function in mpi3rma/rma whose name starts
// with "With".
func optionCalls(info *types.Info, args []ast.Expr) []*ast.CallExpr {
	var opts []*ast.CallExpr
	for _, arg := range args {
		call, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := callee(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != rmaPath {
			continue
		}
		if len(fn.Name()) > 4 && fn.Name()[:4] == "With" {
			opts = append(opts, call)
		}
	}
	return opts
}

// directCalls extracts the calls a statement performs in order, without
// descending into nested blocks (their own lists) or function literals
// (deferred execution). Deferred and spawned calls are skipped here: the
// statement-list walks model defers themselves (at list exit), and
// goroutines run at another time entirely.
func directCalls(stmt ast.Stmt) []*ast.CallExpr {
	var calls []*ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		calls = callsIn(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			calls = append(calls, callsIn(rhs)...)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			calls = append(calls, callsIn(r)...)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			calls = directCalls(s.Init)
		}
		calls = append(calls, callsIn(s.Cond)...)
	case *ast.SwitchStmt:
		if s.Init != nil {
			calls = directCalls(s.Init)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						calls = append(calls, callsIn(v)...)
					}
				}
			}
		}
	}
	return calls
}

// callsIn collects calls within one expression, skipping function literals.
func callsIn(expr ast.Expr) []*ast.CallExpr {
	if expr == nil {
		return nil
	}
	var calls []*ast.CallExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, call)
		}
		return true
	})
	return calls
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsContract pins the two conventions the observability layer's stability
// depends on:
//
//  1. Metric and span names are compile-time constants. The metrics registry
//     and trace encoder key series by name; a fmt.Sprintf-derived name turns
//     a fixed-cardinality series set into an unbounded one (one series per
//     batch ID is a cardinality bomb in any real scrape pipeline). Call
//     sites on metrics.Registry (Counter/Gauge/Histogram) and
//     tracing.Tracer (Span/Instant/Counter and their typed siblings) must
//     pass names, or name prefixes, whose value the compiler can fold; the
//     typed methods' id is the one sanctioned per-event part of a name.
//     Deliberately dynamic names — bounded enums such as a fault kind —
//     carry a //nostop:allow obscontract with the bound.
//
//  2. Observer implementations are nil-safe. The engine hands *obsState to
//     the broker as a possibly-nil interface value; every pointer-receiver
//     method of a type implementing an *Observer interface must therefore
//     begin with a nil-receiver guard (`if o == nil { return }`) so a
//     disabled observer stays a cheap no-op instead of a panic.
//
// The receiver match is by type name (Registry, Tracer) and method name:
// the analyzer is a repo contract, not a general library, and the fixture
// packages must be loadable without importing the real metrics/tracing
// packages.
var ObsContract = &Analyzer{
	Name: "obscontract",
	Doc: "metric/span names must be compile-time constants and Observer " +
		"implementations must keep nil-safe receivers",
	SkipTestFiles: true,
	Run:           runObsContract,
}

// obsNameArgs maps receiver type name -> method -> index of the name
// argument that must be constant.
var obsNameArgs = map[string]map[string]int{
	"Registry": {"Counter": 0, "Gauge": 0, "Histogram": 0},
	"Tracer": {
		"Span": 3, "Instant": 3, "Counter": 1,
		"TypedSpan": 3, "TypedInstant": 3, "TypedCounter": 1,
	},
}

func runObsContract(pass *Pass) {
	ifaces := observerInterfaces(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				checkNilSafeReceiver(pass, fd, ifaces)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkConstantName(pass, call)
			return true
		})
	}
}

// checkConstantName flags Registry/Tracer name arguments the compiler cannot
// fold to a constant.
func checkConstantName(pass *Pass, call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recvName := namedRecvName(sig.Recv().Type())
	methods, ok := obsNameArgs[recvName]
	if !ok {
		return
	}
	argIdx, ok := methods[fn.Name()]
	if !ok || argIdx >= len(call.Args) {
		return
	}
	arg := call.Args[argIdx]
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		return // compile-time constant: fixed cardinality
	}
	pass.Reportf(arg.Pos(),
		"%s.%s name must be a compile-time constant (metric/span cardinality contract)",
		recvName, fn.Name())
}

func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// observerInterfaces collects every interface type named "Observer" (or
// ending in "Observer") visible to the package: its own scope plus its
// direct imports.
func observerInterfaces(pass *Pass) []*types.Interface {
	var out []*types.Interface
	collect := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "Observer") {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	collect(pass.Pkg.Scope())
	for _, imp := range pass.Pkg.Imports() {
		collect(imp.Scope())
	}
	return out
}

// checkNilSafeReceiver requires pointer-receiver methods that satisfy an
// Observer interface to start with a nil-receiver guard.
func checkNilSafeReceiver(pass *Pass, fd *ast.FuncDecl, ifaces []*types.Interface) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
		return
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return // unnamed receiver cannot be dereferenced: trivially nil-safe
	}
	recv, ok := pass.TypesInfo.Defs[names[0]].(*types.Var)
	if !ok {
		return
	}
	if _, isPtr := recv.Type().(*types.Pointer); !isPtr {
		return // value receivers copy; a nil pointer never reaches them
	}
	method := fd.Name.Name
	implements := false
	for _, it := range ifaces {
		if !interfaceHasMethod(it, method) {
			continue
		}
		if types.Implements(recv.Type(), it) {
			implements = true
			break
		}
	}
	if !implements {
		return
	}
	if hasNilGuard(names[0].Name, fd.Body) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"Observer method %s must begin with a nil-receiver guard (a disabled observer is a nil %s)",
		method, types.TypeString(recv.Type(), nil))
}

func interfaceHasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// hasNilGuard reports whether body is empty or starts with
// `if <recv> == nil { ... return ... }` (possibly inside a larger ||
// condition).
func hasNilGuard(recv string, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return true
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok {
		return false
	}
	if !condChecksNil(ifs.Cond, recv) {
		return false
	}
	for _, s := range ifs.Body.List {
		if _, ok := s.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}

func condChecksNil(cond ast.Expr, recv string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op.String() != "==" {
			return true
		}
		if isIdentOrNil(b.X, recv) && isNil(b.Y) || isNil(b.X) && isIdentOrNil(b.Y, recv) {
			found = true
		}
		return !found
	})
	return found
}

func isIdentOrNil(e ast.Expr, name string) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

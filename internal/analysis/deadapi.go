package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadAPI keeps the tree free of code that only tests reach. A function,
// method or type declared in a non-test file is a finding when no non-test
// file of the module references it: a test that is the only caller of an API
// tests nothing a user can run, and the API is maintenance with no payoff.
// Delete it with the test, or let the test read what the code already keeps.
//
// Two kinds of reference do not keep a declaration alive: a function's
// reference to itself, and a type's references from its own declaration and
// its own methods (receivers, parameters, bodies). A method is reached
// without a reference when some interface dispatches to it: it is exempt
// when its receiver type, as a value or a pointer, implements an interface
// that declares the method — one of the module's own interfaces, an
// interface literal, the predeclared error, or an exported interface of any
// standard package the module imports (fmt.Stringer, json.Marshaler,
// sort.Interface, ...). A method of a dead type is reported with its type.
//
// The references come from every package handed to one Check, so the pass
// sees the whole module: cmd/, examples/ and perfbench/ callers count.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc: "flag functions, methods and types that no non-test file of the " +
		"module references",
	SkipTestFiles: true,
	Run:           runDeadAPI,
}

func runDeadAPI(pass *Pass) {
	idx := pass.module.index()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok || d.Name.Name == "init" || d.Name.Name == "main" || d.Name.Name == "_" {
					continue
				}
				if d.Recv == nil {
					if !idx.used[fn] {
						pass.Reportf(d.Name.Pos(), "func %s is not referenced by any non-test file", fn.Name())
					}
					continue
				}
				recv := recvTypeName(fn)
				if recv == nil || !idx.used[recv] || idx.used[fn] || idx.dispatched[fn] {
					continue // a dead type is reported once, at its declaration
				}
				pass.Reportf(d.Name.Pos(), "method %s.%s is not referenced by any non-test file and implements no interface", recv.Name(), fn.Name())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name == "_" {
						continue
					}
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil && !idx.used[obj] {
						pass.Reportf(ts.Name.Pos(), "type %s is not referenced by any non-test file", obj.Name())
					}
				}
			}
		}
	}
}

// moduleView is what a whole-module pass sees beyond its own package: every
// package handed to one Check. The reference index is built on first use and
// shared by the rest of that Check's passes.
type moduleView struct {
	pkgs []*Package
	idx  *refIndex
}

// refIndex records which declarations the module's non-test files reach.
type refIndex struct {
	// used holds every object some non-test identifier refers to, less the
	// self-references runDeadAPI's doc excludes.
	used map[types.Object]bool
	// dispatched holds the methods an interface can call on a module type.
	dispatched map[*types.Func]bool
}

func (m *moduleView) index() *refIndex {
	if m.idx == nil {
		m.idx = buildRefIndex(m.pkgs)
	}
	return m.idx
}

func buildRefIndex(pkgs []*Package) *refIndex {
	idx := &refIndex{used: map[types.Object]bool{}, dispatched: map[*types.Func]bool{}}
	var ifaces []*types.Interface
	var named []*types.Named
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				markUses(pkg.Info, d, idx.used)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if it, ok := pkg.Info.TypeOf(n).(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				case *ast.TypeSpec:
					if obj, ok := pkg.Info.Defs[n.Name].(*types.TypeName); ok {
						if nt, ok := obj.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
							named = append(named, nt)
						}
					}
				}
				return true
			})
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	ifaces = append(ifaces, stdInterfaces(pkgs)...)

	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue // a constraint, not something a value is stored in
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		ptr := types.NewPointer(nt)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byMethod[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				// Mark every method the interface can reach, promoted
				// ones included: an embedded type's method is dispatched
				// through its embedder.
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						idx.dispatched[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
	return idx
}

// markUses records the objects the identifiers of one top-level declaration
// refer to, skipping the declaration's references to itself: a function's
// recursion, and a type's mentions in its own spec and its own methods.
func markUses(info *types.Info, d ast.Decl, used map[types.Object]bool) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		var self, recv types.Object
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			self = fn
			if tn := recvTypeName(fn); tn != nil {
				recv = tn
			}
		}
		markIn(info, d, used, self, recv)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self types.Object
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self = info.Defs[ts.Name]
			}
			markIn(info, spec, used, self, nil)
		}
	}
}

func markIn(info *types.Info, n ast.Node, used map[types.Object]bool, self, selfType types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if obj != nil && obj != self && obj != selfType {
				used[obj] = true
			}
		}
		return true
	})
}

// recvTypeName returns the named type a method is declared on, or nil for a
// plain function.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if nt, ok := t.(*types.Named); ok {
		return nt.Obj()
	}
	return nil
}

// stdInterfaces returns the exported interfaces of every standard package
// the loaded packages import, directly or through one another.
func stdInterfaces(pkgs []*Package) []*types.Interface {
	local := map[string]bool{}
	for _, pkg := range pkgs {
		local[pkg.Types.Path()] = true
	}
	seen := map[*types.Package]bool{}
	var queue []*types.Package
	for _, pkg := range pkgs {
		queue = append(queue, pkg.Types.Imports()...)
	}
	var out []*types.Interface
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] || local[p.Path()] {
			continue
		}
		seen[p] = true
		queue = append(queue, p.Imports()...)
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

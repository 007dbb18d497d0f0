package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow is the static half of the cancellation contract (DESIGN.md §9):
// the context handed to core.Solve* or server.Execute must flow to every
// cancellation boundary. Three code shapes break it silently — minting a
// fresh context.Background()/context.TODO() somewhere down the call chain
// (detaching everything below from the caller's deadline), accepting a
// ctx in a non-first parameter position (callers stop threading it), and
// a probe/try/shot loop that never polls ctx (cancellation arrives only
// after the loop drains). The dynamic cancellation tests sample a few
// cut points; this pass bans the shapes everywhere.
//
// Rules, in check order:
//
//  1. ctx-first (module-wide): a function that accepts a context.Context
//     must take it as its first parameter.
//  2. boundary loops (module-wide): a loop annotated
//     `//ctx:boundary <probe|try|shot|round>` (trailing on the `for`
//     line or the line above) must contain a ctx.Err() or ctx.Done()
//     call, and must sit in a function with a ctx in scope.
//  3. no fresh contexts (reachable from the Roots): functions on a call
//     path from core.Solve* or server.Execute must not call
//     context.Background() or context.TODO() — the caller's ctx is in
//     (or one hop from) scope.
//     Recognized legacy wrappers are exempt: a function WITHOUT a ctx
//     parameter that passes Background()/TODO() directly as the argument
//     of a ctx-aware module call (`func SQA(…) { return SQACtx(
//     context.Background(), …) }`) is the documented compatibility
//     pattern. Each wrapper exports a "wrapper" fact.
//  4. wrapper calls (module-wide, fact-consuming): a function that has a
//     ctx in scope must not call a legacy wrapper — the wrapper would
//     silently detach the work from the caller's deadline. This is the
//     cross-package half: the fact is exported by the wrapper's package
//     and the diagnostic lands at the caller's call site.
//
// main packages are exempt throughout: main is where a root context is
// legitimately minted.
type CtxFlow struct {
	Roots []CallRoot
}

// CallRoot selects call-graph root functions by package path suffix and
// function name prefix ("Solve" matches Solve, SolveTKP, SolveMKP, …).
// It is shared by the ctxflow and errwrap passes.
type CallRoot struct {
	PkgSuffix  string
	FuncPrefix string
}

// matches reports whether a call-graph node is a root.
func (r CallRoot) matches(node *CallNode) bool {
	if !strings.HasSuffix(node.Pkg.Path, r.PkgSuffix) {
		return false
	}
	name := FuncKey(node.Fn)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return strings.HasPrefix(name, r.FuncPrefix)
}

// rootSet resolves a root spec list against the call graph, returning
// the roots in deterministic declaration order plus display names.
func rootSet(g *CallGraph, specs []CallRoot) ([]*types.Func, map[*types.Func]string) {
	var roots []*types.Func
	names := make(map[*types.Func]string)
	g.Walk(func(node *CallNode) {
		for _, r := range specs {
			if r.matches(node) {
				if _, have := names[node.Fn]; !have {
					roots = append(roots, node.Fn)
					names[node.Fn] = node.Pkg.Name + "." + FuncKey(node.Fn)
				}
				break
			}
		}
	})
	return roots, names
}

// DefaultCtxFlow returns the analyzer wired to the repo's solver entry
// points.
func DefaultCtxFlow() CtxFlow {
	return CtxFlow{Roots: defaultRoots()}
}

// defaultRoots are the call-graph roots of the solver entry points shared
// by ctxflow and errwrap: core.Solve* for the contributed algorithms,
// and server.Execute, the wire dispatch behind both the daemon and
// `qmkp -json-in`, which also reaches the classical solvers.
func defaultRoots() []CallRoot {
	return []CallRoot{
		{PkgSuffix: "internal/core", FuncPrefix: "Solve"},
		{PkgSuffix: "internal/server", FuncPrefix: "Execute"},
	}
}

// Name implements ModuleAnalyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements ModuleAnalyzer.
func (CtxFlow) Doc() string {
	return "contexts must flow from core.Solve* to every cancellation boundary: ctx first, no fresh Background/TODO on solve paths, annotated probe/try/shot loops poll ctx"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParamIndex returns the index of the first context.Context parameter
// of fn's signature, or -1.
func ctxParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// contextConstructor reports whether the call mints a fresh root context
// (context.Background or context.TODO) and returns the function name.
func (p *Package) contextConstructor(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

// wrapperCallee resolves the recognized legacy-wrapper pattern: somewhere
// in body, a context.Background()/TODO() call appears as a direct
// argument of a call to a ctx-aware module function. Returns that callee
// (the ctx-aware variant the wrapper delegates to) or nil.
func (p *Package) wrapperCallee(body *ast.BlockStmt) *types.Func {
	var out *types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.moduleFunc(call)
		if callee == nil || ctxParamIndex(callee) < 0 {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, isCtor := p.contextConstructor(inner); isCtor {
				out = callee
				return false
			}
		}
		return true
	})
	return out
}

// ExportFacts implements FactExporter: one "wrapper" fact per recognized
// legacy background-context wrapper, consumed by rule 4 at call sites in
// other packages.
func (CtxFlow) ExportFacts(pkg *Package, facts *FactStore) {
	if pkg.TypesInfo == nil || pkg.Name == "main" {
		return
	}
	for _, f := range pkg.nonTestFiles() {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || ctxParamIndex(fn) >= 0 {
				continue
			}
			if callee := pkg.wrapperCallee(fd.Body); callee != nil {
				facts.Export(Fact{
					Package:  pkg.Path,
					Object:   FuncKey(fn),
					Analyzer: "ctxflow",
					Kind:     "wrapper",
					Detail:   callee.Pkg().Name() + "." + callee.Name(),
					Pos:      pkg.Fset.Position(fd.Pos()),
				})
			}
		}
	}
}

// CheckModule implements ModuleAnalyzer.
func (a CtxFlow) CheckModule(m *Module) []Diagnostic {
	roots, rootNames := rootSet(m.Graph, a.Roots)
	reach := m.Graph.Reachable(roots)

	var out []Diagnostic
	seenPkg := make(map[*Package]bool)
	m.Graph.Walk(func(node *CallNode) {
		pkg := node.Pkg
		if pkg.TypesInfo == nil || pkg.Name == "main" {
			return
		}
		if !seenPkg[pkg] {
			seenPkg[pkg] = true
			out = append(out, pkg.boundaryLoopDiags(a)...)
		}
		fn := node.Fn
		ctxIdx := ctxParamIndex(fn)

		// Rule 1: ctx must be the first parameter.
		if ctxIdx > 0 {
			out = append(out, Diagnostic{
				Pos:      pkg.Fset.Position(node.Decl.Pos()),
				Analyzer: a.Name(),
				Message: fmt.Sprintf("%s.%s takes context.Context as parameter %d; ctx must be the first parameter",
					pkg.Name, FuncKey(fn), ctxIdx),
			})
		}

		// Rule 3: no fresh contexts on paths from the roots.
		if root, reachable := reach[fn]; reachable {
			rootName := rootNames[root]
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := pkg.contextConstructor(call)
				if !ok {
					return true
				}
				if ctxIdx < 0 && pkg.isWrapperArgUse(node.Decl.Body, call) {
					return true // recognized legacy wrapper (rule 4 polices its callers)
				}
				what := "a ctx parameter is in scope; propagate it"
				if ctxIdx < 0 {
					what = "thread the caller's ctx through instead"
				}
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(call.Pos()),
					Analyzer: a.Name(),
					Message: fmt.Sprintf("context.%s() in %s.%s on a path from %s detaches the work from the caller's deadline; %s",
						name, pkg.Name, FuncKey(fn), rootName, what),
				})
				return true
			})
		}

		// Rule 4: ctx in scope, but a legacy wrapper is called.
		if ctxIdx >= 0 {
			for _, e := range node.Calls {
				calleeNode := m.Graph.Nodes[e.Callee]
				if calleeNode == nil {
					continue
				}
				facts := m.Facts.Select(calleeNode.Pkg.Path, FuncKey(e.Callee), "ctxflow", "wrapper")
				if len(facts) == 0 {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(e.Pos),
					Analyzer: a.Name(),
					Message: fmt.Sprintf("call to legacy wrapper %s.%s runs under context.Background while a ctx is in scope; call %s directly",
						calleeNode.Pkg.Name, FuncKey(e.Callee), facts[0].Detail),
				})
			}
		}
	})
	return out
}

// ctxBoundaryKinds are the cancellation-boundary classes the solver
// contracts name (DESIGN.md §9): binary-search probes, Grover tries,
// anneal shots, hybrid rounds.
var ctxBoundaryKinds = map[string]bool{"probe": true, "try": true, "shot": true, "round": true}

// boundaryDirective is one parsed //ctx:boundary comment.
type boundaryDirective struct {
	line int
	kind string
	used bool
}

// boundaryLoopDiags enforces rule 2 over one package's non-test files:
// every //ctx:boundary annotation must sit on a loop, name a known
// boundary kind, have a ctx in scope, and the loop must poll it.
func (p *Package) boundaryLoopDiags(a ModuleAnalyzer) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.nonTestFiles() {
		var directives []*boundaryDirective
		byLine := make(map[int]*boundaryDirective)
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "ctx:boundary")
				if !ok {
					continue
				}
				d := &boundaryDirective{
					line: p.Fset.Position(c.Pos()).Line,
					kind: strings.TrimSpace(rest),
				}
				directives = append(directives, d)
				byLine[d.line] = d
			}
		}
		if len(directives) == 0 {
			continue
		}
		inspectWithStack(f.AST, func(n ast.Node, stack []ast.Node) {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return
			}
			line := p.Fset.Position(n.Pos()).Line
			d := byLine[line]
			if d == nil {
				d = byLine[line-1]
			}
			if d == nil || d.used {
				return
			}
			d.used = true
			if !ctxBoundaryKinds[d.kind] {
				out = append(out, Diagnostic{
					Pos:      p.Fset.Position(n.Pos()),
					Analyzer: a.Name(),
					Message: fmt.Sprintf("//ctx:boundary %q is not a known boundary kind (probe|try|shot|round)",
						d.kind),
				})
				return
			}
			if !enclosingHasCtx(stack) {
				out = append(out, Diagnostic{
					Pos:      p.Fset.Position(n.Pos()),
					Analyzer: a.Name(),
					Message:  fmt.Sprintf("%s-boundary loop has no context in scope; the boundary cannot honour cancellation", d.kind),
				})
				return
			}
			if !p.loopPollsCtx(body) {
				out = append(out, Diagnostic{
					Pos:      p.Fset.Position(n.Pos()),
					Analyzer: a.Name(),
					Message:  fmt.Sprintf("%s-boundary loop never checks ctx.Err()/ctx.Done(); cancellation waits for the loop to drain", d.kind),
				})
			}
		})
		for _, d := range directives {
			if !d.used {
				out = append(out, Diagnostic{
					Pos:      p.positionAtLine(f, d.line),
					Analyzer: a.Name(),
					Message:  "//ctx:boundary annotation is not attached to a loop (it covers the for statement on its own line or the line below)",
				})
			}
		}
	}
	return out
}

// positionAtLine synthesizes a position for a comment-anchored
// diagnostic.
func (p *Package) positionAtLine(f *SourceFile, line int) token.Position {
	return token.Position{Filename: f.Name, Line: line}
}

// enclosingHasCtx reports whether any enclosing function declaration or
// literal on the stack takes a context.Context parameter (a captured ctx
// in a closure counts through its declaring function).
func enclosingHasCtx(stack []ast.Node) bool {
	for _, n := range stack {
		var ft *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if sel, ok := field.Type.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" && sel.Sel.Name == "Context" {
					return true
				}
			}
		}
	}
	return false
}

// loopPollsCtx reports whether the loop body contains a ctx.Err() or
// ctx.Done() call on a context.Context-typed receiver.
func (p *Package) loopPollsCtx(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name := sel.Sel.Name; name != "Err" && name != "Done" {
			return true
		}
		if tv, ok := p.TypesInfo.Types[sel.X]; ok && tv.Type != nil && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isWrapperArgUse reports whether this particular Background/TODO call is
// the direct argument of a ctx-aware module call somewhere in body — the
// recognized wrapper pattern of ExportFacts, checked per call site.
func (p *Package) isWrapperArgUse(body *ast.BlockStmt, ctor *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.moduleFunc(call)
		if callee == nil || ctxParamIndex(callee) < 0 {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) == ctor {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

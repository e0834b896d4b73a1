package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLeak polices the long-lived daemon packages: every `go`
// statement in server, cic, and experiment code must be tied to a
// termination signal observable in the spawned body (or in the static
// functions it calls) — a context Done/Err check, a channel receive or
// select, a range over a (closable) channel, or an I/O call whose error
// exits the loop. Loop-free bodies terminate by construction and pass.
// The analyzer additionally flags two structural leak shapes: the
// abandoned rendezvous (a goroutine sending on an unbuffered local
// channel whose only receiver is a select that can take a different
// case — buffer the channel so the sender cannot block forever) and
// the abandoned pump (a goroutine ranging over a channel from a local
// resource whose Close/close is reached only on the fall-through path,
// so an early return strands the range forever — defer the release).
// `//cic:leak-ok` on the `go` line waives a finding the surrounding
// design already bounds.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc: "go statements in server/cic/experiment packages must have a " +
		"termination signal (ctx/done channel/closed queue/IO error exit) " +
		"observable in the goroutine body; unbuffered sends into an " +
		"abandonable select are flagged; waive with //cic:leak-ok",
	RunProgram: runGoroutineLeak,
}

// goroutinePkgs are the long-lived daemon packages whose goroutines the
// analyzer polices (fixture packages reuse these names to opt in).
var goroutinePkgs = map[string]bool{
	"server":     true,
	"cluster":    true,
	"daemon":     true,
	"cic":        true,
	"experiment": true,
	"main":       true,
	"resume":     true,
}

const leakOKMarker = "//cic:leak-ok"

func runGoroutineLeak(pass *ProgramPass) error {
	cg := pass.Prog.CallGraph()
	fset := pass.Prog.Fset
	memo := map[*FuncNode]leakVerdict{}

	for _, pkg := range pass.Prog.Pkgs {
		if !goroutinePkgs[pkg.Name] {
			continue
		}
		for _, file := range pkg.Files {
			waived := markerLines(fset, file, leakOKMarker)
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					if _, ok := waived[fset.Position(x.Pos()).Line]; ok {
						return true
					}
					checkGoStmt(pass, pkg, cg, memo, x)
				case *ast.FuncDecl:
					if x.Body != nil {
						checkAbandonedRendezvous(pass, pkg, x.Body, waived)
						checkAbandonedPump(pass, pkg, x.Body, waived)
					}
				}
				return true
			})
		}
	}
	return nil
}

// leakVerdict is the memoized analysis of one function: whether it (or
// a static callee) contains an unbounded loop with no termination
// evidence, and where.
type leakVerdict struct {
	suspicious bool
	pos        token.Pos
	why        string
}

func checkGoStmt(pass *ProgramPass, pkg *Package, cg *CallGraph, memo map[*FuncNode]leakVerdict, g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		v := suspiciousBody(pkg, lit.Body, cg, memo, map[*FuncNode]bool{})
		if v.suspicious {
			pass.Reportf(g.Pos(), "goroutine has no termination signal: %s — tie it to ctx.Done(), a done channel, a closed work queue, or waive with //cic:leak-ok", v.why)
		}
		return
	}
	fn := calleeFunc(pkg.Info, g.Call)
	if fn == nil {
		// Dynamic entry (func value / interface method): the body is
		// invisible, so termination cannot be verified here.
		pass.Reportf(g.Pos(), "goroutine entry is a dynamic call, so its termination signal cannot be verified: spawn a named function, or waive with //cic:leak-ok")
		return
	}
	node := cg.NodeOf(fn)
	if node == nil {
		// Standard-library entries (e.g. go srv.Serve) are outside the
		// program; trust them.
		return
	}
	v := nodeVerdict(node, cg, memo)
	if v.suspicious {
		pass.Reportf(g.Pos(), "goroutine running %s has no termination signal: %s — tie it to ctx.Done(), a done channel, a closed work queue, or waive with //cic:leak-ok", node.Name(), v.why)
	}
}

func nodeVerdict(n *FuncNode, cg *CallGraph, memo map[*FuncNode]leakVerdict) leakVerdict {
	if v, ok := memo[n]; ok {
		return v
	}
	// Optimistic placeholder breaks call cycles.
	memo[n] = leakVerdict{}
	v := suspiciousBody(n.Pkg, n.Decl.Body, cg, memo, map[*FuncNode]bool{n: true})
	memo[n] = v
	return v
}

// suspiciousBody scans one body for unbounded loops without termination
// evidence, descending into static callees (the loop may live in a
// helper the goroutine entry delegates to).
func suspiciousBody(pkg *Package, body *ast.BlockStmt, cg *CallGraph, memo map[*FuncNode]leakVerdict, onPath map[*FuncNode]bool) leakVerdict {
	var verdict leakVerdict
	ast.Inspect(body, func(n ast.Node) bool {
		if verdict.suspicious {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			// A nested literal runs on its own schedule; its loops are
			// judged when (if) it is spawned or invoked.
			return false
		case *ast.ForStmt:
			if x.Cond == nil && !loopHasTerminationEvidence(pkg, x.Body) {
				verdict = leakVerdict{suspicious: true, pos: x.Pos(), why: "spins in an unbounded for-loop with no exit statement and no select/receive/ctx signal"}
				return false
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pkg.Info, x); fn != nil {
				if callee := cg.NodeOf(fn); callee != nil && !onPath[callee] {
					onPath[callee] = true
					if v := nodeVerdict(callee, cg, memo); v.suspicious {
						verdict = leakVerdict{suspicious: true, pos: x.Pos(), why: "calls " + callee.Name() + ", which " + v.why}
						return false
					}
				}
			}
		}
		return true
	})
	return verdict
}

// loopHasTerminationEvidence reports whether an unbounded loop body
// contains a way out: an external signal (a select, a channel receive,
// a range over a channel, a context Done/Err call) or any exit
// statement (return/break — the shape of I/O pump loops that leave on
// error and of CAS/retry loops that terminate by local computation).
// Only loops with neither — run-forever bodies with no escape — are the
// leak class.
func loopHasTerminationEvidence(pkg *Package, body *ast.BlockStmt) bool {
	var (
		hasSignal bool // select / receive / chan range / ctx call
		hasExit   bool // return or break
	)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasSignal = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				hasSignal = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok && tv.Type != nil {
				if _, ok := tv.Type.Underlying().(*types.Chan); ok {
					hasSignal = true
				}
			}
		case *ast.ReturnStmt:
			hasExit = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				hasExit = true
			}
		case *ast.CallExpr:
			if isCtxSignalCall(pkg.Info, x) {
				hasSignal = true
			}
		}
		return true
	})
	return hasSignal || hasExit
}

// isCtxSignalCall matches ctx.Done() / ctx.Err() on context.Context.
func isCtxSignalCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func typeIsIOLike(t types.Type) bool {
	hasIOMethod := func(t types.Type) bool {
		ms := types.NewMethodSet(t)
		for _, name := range []string{"Read", "Write", "Accept"} {
			if ms.Lookup(nil, name) != nil {
				return true
			}
		}
		return false
	}
	if hasIOMethod(t) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return hasIOMethod(types.NewPointer(t))
	}
	return false
}

// checkAbandonedRendezvous flags the leak-by-rendezvous shape inside
// one declaration: a local unbuffered channel, a goroutine that sends
// on it, and a receiving select that can take another case and abandon
// the sender forever. Buffering the channel (capacity 1) makes the
// send non-blocking and the goroutine always terminates.
func checkAbandonedRendezvous(pass *ProgramPass, pkg *Package, body *ast.BlockStmt, waived map[int]token.Pos) {
	fset := pass.Prog.Fset
	unbuffered := map[types.Object]bool{}
	goSends := map[types.Object]token.Pos{}

	chanObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[id]
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rh := range x.Rhs {
				call, ok := ast.Unparen(rh).(*ast.CallExpr)
				if !ok || len(call.Args) != 1 || i >= len(x.Lhs) {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
					continue
				}
				if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						if obj := chanObj(x.Lhs[i]); obj != nil {
							unbuffered[obj] = true
						}
					}
				}
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if send, ok := m.(*ast.SendStmt); ok {
						if obj := chanObj(send.Chan); obj != nil && unbuffered[obj] {
							goSends[obj] = send.Pos()
						}
					}
					return true
				})
			}
		case *ast.SelectStmt:
			if len(x.Body.List) < 2 {
				return true
			}
			for _, clause := range x.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				recv := receivedChan(comm.Comm)
				if recv == nil {
					continue
				}
				obj := chanObj(recv)
				if obj == nil || !unbuffered[obj] {
					continue
				}
				sendPos, ok := goSends[obj]
				if !ok {
					continue
				}
				if _, w := waived[fset.Position(sendPos).Line]; w {
					continue
				}
				pass.Reportf(sendPos, "send on unbuffered channel %s can leak this goroutine: the receiving select has another case and may abandon the rendezvous — make the channel capacity 1, or waive with //cic:leak-ok", obj.Name())
			}
		}
		return true
	})
}

// checkAbandonedPump flags the abandoned-pump shape inside one
// declaration: a goroutine ranging over a channel rooted in a local
// resource (`for p := range gw.Packets()` or `for v := range ch`),
// where the release that would end the range (`gw.Close()` /
// `close(ch)`) is written only on the fall-through path — not
// deferred — and a return statement sits between the spawn and the
// release. Any of those early returns strands the pump on its range
// forever. Deferring the release fixes every exit path at once.
func checkAbandonedPump(pass *ProgramPass, pkg *Package, body *ast.BlockStmt, waived map[int]token.Pos) {
	fset := pass.Prog.Fset

	// localRoot resolves the ranged expression to the local variable
	// owning the channel: the receiver of the producing method call, or
	// the channel variable itself. Variables declared outside the body
	// (parameters, receivers, globals) are skipped — their lifecycle is
	// the caller's contract, not this function's.
	localRoot := func(e ast.Expr) types.Object {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.CallExpr:
				e = x.Fun
			case *ast.SelectorExpr:
				e = x.X
			case *ast.Ident:
				obj := pkg.Info.Uses[x]
				if obj == nil {
					obj = pkg.Info.Defs[x]
				}
				if v, ok := obj.(*types.Var); ok && v.Pos() >= body.Pos() && v.Pos() < body.End() {
					return v
				}
				return nil
			default:
				return nil
			}
		}
	}

	// releasesOf finds the resource's release calls in the body:
	// `obj.Close()` or `close(obj)`. Deferred ones end every path;
	// plain ones only end the path they sit on.
	isRelease := func(call *ast.CallExpr, obj types.Object) bool {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Close" && localRoot(fun.X) == obj
		case *ast.Ident:
			if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "close" && len(call.Args) == 1 {
				return localRoot(call.Args[0]) == obj
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		var resource types.Object
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if resource != nil {
				return false
			}
			rng, ok := m.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if tv, ok := pkg.Info.Types[rng.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					resource = localRoot(rng.X)
				}
			}
			return true
		})
		if resource == nil {
			return true
		}
		if _, ok := waived[fset.Position(g.Pos()).Line]; ok {
			return true
		}

		var (
			deferred     bool
			firstRelease token.Pos
		)
		collectReleases(body, resource, isRelease, &deferred, &firstRelease)
		if deferred || !firstRelease.IsValid() {
			// Deferred release covers every path; no release at all means
			// the channel's lifecycle lives elsewhere — out of scope.
			return true
		}
		if returnBetween(body, g.End(), firstRelease) {
			pass.Reportf(g.Pos(), "pump goroutine ranging over a channel from %s can be abandoned: %s is released only on the fall-through path and an earlier return skips it — defer the Close/close so every exit path ends the pump, or waive with //cic:leak-ok", resource.Name(), resource.Name())
		}
		return true
	})
}

// collectReleases records whether the resource has a deferred release
// and the position of its first plain (non-deferred) release. Releases
// inside function literals run on another schedule and do not count.
func collectReleases(body *ast.BlockStmt, obj types.Object, isRelease func(*ast.CallExpr, types.Object) bool, deferred *bool, first *token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if isRelease(x.Call, obj) {
				*deferred = true
			}
			return false
		case *ast.CallExpr:
			if isRelease(x, obj) && (!first.IsValid() || x.Pos() < *first) {
				*first = x.Pos()
			}
		}
		return true
	})
}

// returnBetween reports whether a return statement (of the enclosing
// function — literals are skipped) sits in the (lo, hi) position range.
func returnBetween(body *ast.BlockStmt, lo, hi token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if x.Pos() > lo && x.Pos() < hi {
				found = true
			}
		}
		return true
	})
	return found
}

// receivedChan extracts the channel expression a comm clause receives
// from (`<-ch`, `v := <-ch`, `v, ok := <-ch`), nil for send clauses.
func receivedChan(stmt ast.Stmt) ast.Expr {
	var expr ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(expr).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

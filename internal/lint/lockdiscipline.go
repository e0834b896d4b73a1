package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces two rules on the daemon's mutexes. First, a
// held mutex must not span a potentially blocking operation: a channel
// send or receive (outside a select with a default), a blocking select,
// blocking I/O, WaitGroup.Wait, time.Sleep, or a dynamic callback
// invocation — any of these under a lock couples the lock's hold time
// to peers the lock owner does not control. The check is whole-program:
// calling a function whose transitive (static) call tree contains a
// blocking operation counts as blocking at the call site. Second, the
// named struct-field locks in internal/server must be acquired in a
// consistent order across the package, so parked-session refactors
// cannot introduce lock-order inversions. `//cic:lock-ok` on the
// offending line waives a finding whose design is vouched for.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "no mutex held across channel operations, blocking I/O, WaitGroup.Wait, " +
		"time.Sleep, or callback invocations (transitively, via the call graph); " +
		"named server locks are acquired in a consistent order; waive with //cic:lock-ok",
	RunProgram: runLockDiscipline,
}

// lockPkgs are the packages whose lock usage is policed.
var lockPkgs = map[string]bool{
	"server":     true,
	"cluster":    true,
	"daemon":     true,
	"cic":        true,
	"obs":        true,
	"experiment": true,
	"resume":     true,
}

const lockOKMarker = "//cic:lock-ok"

// blockKinds, in reporting priority order.
var blockKinds = []string{
	"channel send",
	"channel receive",
	"blocking select",
	"range over channel",
	"blocking I/O",
	"WaitGroup.Wait",
	"time.Sleep",
	"callback invocation",
}

// blockEvent is one way a function may block, with the position of the
// operation and a human-readable call path for transitive events.
type blockEvent struct {
	kind string
	pos  token.Pos
	path string // "" for direct events, "via a → b" for inherited ones
}

func runLockDiscipline(pass *ProgramPass) error {
	cg := pass.Prog.CallGraph()
	summaries := blockSummaries(pass.Prog, cg)

	var order *lockOrderGraph
	for _, pkg := range pass.Prog.Pkgs {
		if !lockPkgs[pkg.Name] {
			continue
		}
		if order == nil {
			order = newLockOrderGraph()
		}
		for _, file := range pkg.Files {
			waived := markerLines(pass.Prog.Fset, file, lockOKMarker)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockFlow(pass, pkg, cg, summaries, fd, waived, order)
			}
		}
	}
	if order != nil {
		order.reportCycles(pass)
	}
	return nil
}

// ---- whole-program blocking summaries -------------------------------

// blockSummaries computes, for every program function, the set of
// blocking operations its transitive static call tree may perform.
// Direct events come from the function's own body (goroutine and
// closure bodies excluded — they run on their own schedule); inherited
// events flow up static call edges to a fixpoint.
func blockSummaries(prog *Program, cg *CallGraph) map[*FuncNode]map[string]blockEvent {
	direct := make(map[*FuncNode]map[string]blockEvent, len(cg.Nodes))
	for _, n := range cg.Nodes {
		direct[n] = directBlockEvents(n)
	}
	sum := make(map[*FuncNode]map[string]blockEvent, len(cg.Nodes))
	for n, d := range direct {
		m := map[string]blockEvent{}
		for k, v := range d {
			m[k] = v
		}
		sum[n] = m
	}
	for changed := true; changed; {
		changed = false
		for _, n := range cg.Nodes {
			for _, site := range n.Calls {
				if site.Dynamic {
					continue
				}
				for kind, ev := range sum[site.Callee] {
					if _, ok := sum[n][kind]; ok {
						continue
					}
					path := site.Callee.Name()
					if ev.path != "" {
						path += " " + ev.path
					}
					sum[n][kind] = blockEvent{kind: kind, pos: site.Pos, path: "via " + strings.TrimPrefix(path, "via ")}
					changed = true
				}
			}
		}
	}
	return sum
}

// directBlockEvents scans one function body for operations that may
// block the calling goroutine.
func directBlockEvents(n *FuncNode) map[string]blockEvent {
	events := map[string]blockEvent{}
	add := func(kind string, pos token.Pos) {
		if _, ok := events[kind]; !ok {
			events[kind] = blockEvent{kind: kind, pos: pos}
		}
	}
	info := n.Pkg.Info

	var scan func(node ast.Node)
	scan = func(node ast.Node) {
		ast.Inspect(node, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SendStmt:
				add("channel send", x.Pos())
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					add("channel receive", x.Pos())
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						add("range over channel", x.Pos())
					}
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, clause := range x.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					add("blocking select", x.Pos())
				}
				// Comm clauses of a default-carrying select are
				// non-blocking; only the case bodies are rescanned.
				for _, clause := range x.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							scan(s)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if kind := directCallBlockKind(info, x); kind != "" {
					add(kind, x.Pos())
				}
			}
			return true
		})
	}
	scan(n.Decl.Body)
	return events
}

// directCallBlockKind classifies one call expression as a direct
// blocking operation ("" when it is not one). Module-internal callees
// are handled by summary propagation, not here.
func directCallBlockKind(info *types.Info, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return "" // conversion
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return ""
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		if callSignature(info, fun) != nil {
			return "callback invocation"
		}
		return ""
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case pkgPath == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case fn.Name() == "Wait" && recvIsNamed(fn, "sync", "WaitGroup"):
		return "WaitGroup.Wait"
	case pkgPath == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"):
		if len(call.Args) > 0 && !inMemoryIO(info, call.Args[0]) {
			return "blocking I/O"
		}
	case pkgPath == "io" || pkgPath == "io/ioutil":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "WriteString", "ReadFull", "ReadAll", "ReadAtLeast":
			return "blocking I/O"
		}
	}
	// Method call with an I/O-shaped name on an I/O-carrying receiver
	// (interfaces like io.Writer / net.Conn, or concrete os/bufio/net
	// types) — in-memory buffers are exempt.
	if sel, ok := fun.(*ast.SelectorExpr); ok && blockingIOName(fn.Name()) {
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			if typeIsIOLike(tv.Type) && !inMemoryIO(info, sel.X) {
				return "blocking I/O"
			}
		}
	}
	return ""
}

func blockingIOName(name string) bool {
	switch name {
	case "Read", "Write", "Flush", "Accept", "ReadFrom", "WriteTo",
		"ReadByte", "ReadRune", "ReadString", "ReadBytes", "ReadFull",
		"WriteString", "WriteByte", "WriteRune", "Printf", "Sync":
		return true
	}
	return false
}

// inMemoryIO reports whether the expression's static type lives in
// bytes or strings (in-memory buffers never block).
func inMemoryIO(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return pkg == "bytes" || pkg == "strings"
}

func recvIsNamed(fn *types.Func, pkgPath, typeName string) bool {
	recv := funcSig(fn).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// ---- per-function held-lock walk ------------------------------------

func checkLockFlow(pass *ProgramPass, pkg *Package, cg *CallGraph, summaries map[*FuncNode]map[string]blockEvent, fd *ast.FuncDecl, waived map[int]token.Pos, order *lockOrderGraph) {
	fset := pass.Prog.Fset
	info := pkg.Info
	recvObj := receiverObject(info, fd)

	isWaived := func(pos token.Pos) bool {
		_, ok := waived[fset.Position(pos).Line]
		return ok
	}
	heldDesc := func(st *flowState) string { return strings.Join(st.keys(), ", ") }

	reportEvent := func(pos token.Pos, st *flowState, kind, detail string) {
		if st.empty() || isWaived(pos) {
			return
		}
		msg := fmt.Sprintf("%s while holding %s", kind, heldDesc(st))
		if detail != "" {
			msg += " (" + detail + ")"
		}
		pass.Reportf(pos, "%s: release the lock first, or waive with //cic:lock-ok", msg)
	}

	// checkCall reports blocking behaviour of one call under held locks.
	checkCall := func(call *ast.CallExpr, st *flowState) {
		if st.empty() {
			return
		}
		if fn := calleeFunc(info, call); fn != nil {
			if node := cg.NodeOf(fn); node != nil {
				for _, kind := range blockKinds {
					if ev, ok := summaries[node][kind]; ok {
						detail := ev.path
						if detail == "" {
							detail = "in " + node.Name()
						}
						reportEvent(call.Pos(), st, "call to "+node.Name()+" that may perform a "+kind, detail)
						return // one finding per call site
					}
				}
				return
			}
		}
		if kind := directCallBlockKind(info, call); kind != "" {
			reportEvent(call.Pos(), st, kind, "")
		}
	}

	exprHook := func(e ast.Expr, st *flowState) {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				reportEvent(x.Pos(), st, "channel receive", "")
			}
		case *ast.CallExpr:
			if isLockCall(info, x) != "" {
				return // state transition, handled by the stmt hook
			}
			checkCall(x, st)
		}
	}

	stmtHook := func(stmt ast.Stmt, st *flowState) bool {
		switch x := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(x.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			switch isLockCall(info, call) {
			case "lock":
				id := lockIdent(info, call, recvObj, pkg, fd)
				for _, prev := range st.keys() {
					order.addEdge(prev, id, call.Pos())
				}
				st.add(id, call.Pos())
				return false
			case "unlock":
				st.drop(lockIdent(info, call, recvObj, pkg, fd))
				return false
			}
			return true
		case *ast.DeferStmt:
			// defer mu.Unlock() (directly or inside a literal) keeps the
			// lock held through every remaining statement.
			forEachDeferredCall(x, func(call *ast.CallExpr) {
				if isLockCall(info, call) == "unlock" {
					st.stick(lockIdent(info, call, recvObj, pkg, fd))
				}
			})
			return false
		case *ast.SendStmt:
			flowExprForSend(x, st, exprHook)
			reportEvent(x.Pos(), st, "channel send", "")
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				reportEvent(x.Pos(), st, "blocking select", "")
			}
			return true // clause bodies still walked (comm stmts are not)
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					reportEvent(x.Pos(), st, "range over channel", "")
				}
			}
			return true
		}
		return true
	}

	walkFlow(fd.Body.List, &flowState{}, &flowHooks{stmt: stmtHook, expr: exprHook})
}

// flowExprForSend runs the expression hook over a send's value (the
// channel operand is the operation itself).
func flowExprForSend(s *ast.SendStmt, st *flowState, hook func(ast.Expr, *flowState)) {
	ast.Inspect(s.Value, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			hook(e, st)
		}
		return true
	})
}

// forEachDeferredCall visits the deferred call and, when the deferred
// function is a literal, the calls inside it.
func forEachDeferredCall(d *ast.DeferStmt, fn func(*ast.CallExpr)) {
	fn(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fn(call)
			}
			return true
		})
	}
}

// isLockCall classifies a call as a mutex acquisition ("lock"), release
// ("unlock"), or neither ("").
func isLockCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var verdict string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		verdict = "lock"
	case "Unlock", "RUnlock":
		verdict = "unlock"
	default:
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if recvIsNamed(fn, "sync", "Mutex") || recvIsNamed(fn, "sync", "RWMutex") {
		return verdict
	}
	return ""
}

// lockIdent names the mutex a lock call operates on. Receiver-rooted
// field locks get a type-qualified name ("Server.mu") that is stable
// across functions — those participate in the acquisition-order graph;
// anything else is named locally to the enclosing function.
func lockIdent(info *types.Info, call *ast.CallExpr, recvObj types.Object, pkg *Package, fd *ast.FuncDecl) string {
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	target := ast.Unparen(sel.X) // the mutex expression (strip &)
	if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
		target = ast.Unparen(u.X)
	}
	if fieldSel, ok := target.(*ast.SelectorExpr); ok {
		if rootID, ok := ast.Unparen(rootExpr(fieldSel)).(*ast.Ident); ok && recvObj != nil && info.Uses[rootID] == recvObj {
			if tname := receiverTypeName(info, fd); tname != "" {
				return tname + "." + fieldSel.Sel.Name
			}
		}
	}
	return pkg.Name + "." + fd.Name.Name + ":" + types.ExprString(target)
}

// rootExpr walks selector/index chains down to the base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

func receiverObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

func receiverTypeName(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if se, ok := ast.Unparen(t).(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := ast.Unparen(t).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// ---- acquisition-order graph ----------------------------------------

type lockOrderGraph struct {
	// edges: first-acquired → acquired-while-held, with the position of
	// the first occurrence of each direction.
	edges map[string]map[string]token.Pos
}

func newLockOrderGraph() *lockOrderGraph {
	return &lockOrderGraph{edges: map[string]map[string]token.Pos{}}
}

func (g *lockOrderGraph) addEdge(from, to string, pos token.Pos) {
	if g == nil || from == to {
		return
	}
	// Only type-qualified ("Type.field") lock names are comparable
	// across functions.
	if strings.Contains(from, ":") || strings.Contains(to, ":") {
		return
	}
	if g.edges[from] == nil {
		g.edges[from] = map[string]token.Pos{}
	}
	if _, ok := g.edges[from][to]; !ok {
		g.edges[from][to] = pos
	}
}

// reportCycles flags every acquisition-order cycle (the classic ABBA
// deadlock shape and longer rings) at the position of each offending
// edge.
func (g *lockOrderGraph) reportCycles(pass *ProgramPass) {
	nodes := make([]string, 0, len(g.edges))
	for from := range g.edges {
		nodes = append(nodes, from)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	for _, start := range nodes {
		// DFS for a path back to start.
		var path []string
		var dfs func(cur string) bool
		seen := map[string]bool{}
		dfs = func(cur string) bool {
			if cur == start && len(path) > 0 {
				return true
			}
			if seen[cur] {
				return false
			}
			seen[cur] = true
			next := make([]string, 0, len(g.edges[cur]))
			for to := range g.edges[cur] {
				next = append(next, to)
			}
			sort.Strings(next)
			for _, to := range next {
				path = append(path, to)
				if dfs(to) {
					return true
				}
				path = path[:len(path)-1]
			}
			return false
		}
		if !dfs(start) {
			continue
		}
		cycle := append([]string{start}, path...)
		key := canonicalCycle(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		prev := start
		for _, to := range path {
			pos := g.edges[prev][to]
			pass.Reportf(pos, "inconsistent lock acquisition order: %s is acquired while holding %s here, closing the cycle %s — pick one global order",
				to, prev, strings.Join(cycle, " → "))
			prev = to
		}
	}
}

func canonicalCycle(cycle []string) string {
	// cycle arrives as start, n1, ..., start; drop the closing repeat so
	// the rotation is over the distinct ring, then rotate the smallest
	// name to the front, making the key independent of the DFS entry
	// point (with the repeat kept, [a b a] and [b a b] rotate apart and
	// the same cycle is reported once per entry point).
	if len(cycle) > 1 && cycle[0] == cycle[len(cycle)-1] {
		cycle = cycle[:len(cycle)-1]
	}
	min := 0
	for i, s := range cycle {
		if s < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string{}, cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "→")
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline machine-checks the two mutex invariants the counters'
// scratch lists and the obs registry depend on. First, balance: every
// Lock/RLock must be released on every exit of the function, either by a
// deferred Unlock or path-paired (a fast path that releases mid-function
// before an early return is legal, and the analyzer follows each path to
// prove it).
// Second, no self-deadlock: while a method holds a mutex of its receiver
// it must not call another method that takes the same mutex — the callee
// blocks on the lock its caller holds. The second check rides on
// LocksReceiver facts exported in phase one, so the locking method and the
// calling method may live in different files.
//
// The balance check is a conservative path simulation: branches fork the
// held-lock state, loops must be lock-neutral across one iteration, and a
// function whose state space explodes is skipped rather than guessed at.
var LockDiscipline = &Analyzer{
	Name:  "lockdiscipline",
	Doc:   "flags unbalanced Lock/Unlock paths and self-deadlocking method calls",
	Facts: factsLockDiscipline,
	Run:   runLockDiscipline,
}

// lockModeSuffix distinguishes read acquisitions in lock keys and fact
// field names.
const lockModeSuffix = ":r"

func isLockType(typ string) bool { return typ == "Mutex" || typ == "RWMutex" }

func factsLockDiscipline(pass *Pass) {
	info := pass.Pkg.Info
	pass.Inspector().Preorder(KindFuncDecl, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
			return
		}
		recvObj := info.Defs[fd.Recv.List[0].Names[0]]
		fn := funcDeclObj(info, fd)
		if recvObj == nil || fn == nil {
			return
		}
		recvKey := objKey(recvObj)
		fields := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, typ, method, ok := syncCall(info, call)
			if !ok || !isLockType(typ) || (method != "Lock" && method != "RLock") {
				return true
			}
			root, key, ok := refKey(info, recv)
			if !ok || root != recvObj {
				return true
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(key, recvKey), ".")
			if method == "RLock" {
				rel += lockModeSuffix
			}
			fields[rel] = true
			return true
		})
		if len(fields) == 0 {
			return
		}
		var list []string
		for f := range fields {
			list = append(list, f)
		}
		sort.Strings(list)
		pass.ExportObjectFact(fn, LocksReceiver{Fields: list})
	})
}

func runLockDiscipline(pass *Pass) {
	pass.Inspector().Preorder(KindFuncDecl|KindFuncLit, func(n ast.Node) {
		var body *ast.BlockStmt
		var end token.Pos
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return
			}
			body, end = n.Body, n.Body.Rbrace
		case *ast.FuncLit:
			body, end = n.Body, n.Body.Rbrace
		}
		w := &ldFunc{
			pass:     pass,
			info:     pass.Pkg.Info,
			deferred: map[string]bool{},
			labels:   map[string]string{},
			reported: map[string]bool{},
		}
		w.collectDeferred(body)
		states := w.stmts(body.List, []lockSet{{}})
		for _, st := range states {
			w.checkExit(end, st)
		}
	})
}

// lockSet is one path's held locks: key -> true.
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockSet) signature() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

// maxLockStates bounds the fork explosion; past it the function is skipped
// (no reports) rather than mis-judged.
const maxLockStates = 16

// ldFunc simulates one function body.
type ldFunc struct {
	pass     *Pass
	info     *types.Info
	deferred map[string]bool   // keys released by a deferred Unlock
	labels   map[string]string // key -> source rendering for diagnostics
	reported map[string]bool
	bailed   bool
}

func (w *ldFunc) reportf(pos token.Pos, format string, args ...interface{}) {
	if w.bailed {
		return
	}
	p := w.pass.Pkg.Fset.Position(pos)
	key := p.String() + format
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, format, args...)
}

// collectDeferred records every deferred Unlock/RUnlock in the body (not
// descending into nested function literals): a lock with a deferred
// release is safe to hold at any exit.
func (w *ldFunc) collectDeferred(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		recv, typ, method, ok := syncCall(w.info, d.Call)
		if !ok || !isLockType(typ) {
			return true
		}
		if key, label, ok := w.lockKeyFor(recv, method); ok && (method == "Unlock" || method == "RUnlock") {
			w.deferred[key] = true
			w.labels[key] = label
		}
		return true
	})
}

// lockKeyFor renders the lock expression into its state key (mode suffix
// for read operations) and diagnostic label.
func (w *ldFunc) lockKeyFor(recv ast.Expr, method string) (key, label string, ok bool) {
	_, key, ok = refKey(w.info, recv)
	if !ok {
		return "", "", false
	}
	label = refLabel(recv)
	if method == "RLock" || method == "RUnlock" {
		key += lockModeSuffix
	}
	return key, label, true
}

// stmts simulates a statement list over the incoming states, returning the
// normal-completion states (paths that return/branch away are gone).
func (w *ldFunc) stmts(list []ast.Stmt, states []lockSet) []lockSet {
	for _, s := range list {
		states = w.stmt(s, states)
		states = dedupStates(states)
		if len(states) > maxLockStates {
			w.bailed = true
			states = states[:maxLockStates]
		}
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

func dedupStates(states []lockSet) []lockSet {
	seen := map[string]bool{}
	out := states[:0]
	for _, s := range states {
		sig := s.signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, s)
	}
	return out
}

// sameStates reports whether the two de-duplicated state sets hold the
// same lock configurations.
func sameStates(a, b []lockSet) bool {
	sig := func(states []lockSet) string {
		ss := make([]string, len(states))
		for i, s := range states {
			ss[i] = s.signature()
		}
		sort.Strings(ss)
		return strings.Join(ss, "\x01")
	}
	return sig(a) == sig(b)
}

func (w *ldFunc) stmt(s ast.Stmt, states []lockSet) []lockSet {
	switch s := s.(type) {
	case nil:
		return states
	case *ast.BlockStmt:
		return w.stmts(s.List, states)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, states)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred releases were pre-collected; a goroutine's body runs on
		// its own stack and is simulated as its own function literal.
		return states
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			states = w.applyCalls(res, states)
		}
		for _, st := range states {
			w.checkExit(s.Pos(), st)
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the conservative
		// simulation drops the path rather than guess where it lands.
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			states = w.stmt(s.Init, states)
		}
		states = w.applyCalls(s.Cond, states)
		thenStates := w.stmts(s.Body.List, cloneStates(states))
		var elseStates []lockSet
		if s.Else != nil {
			elseStates = w.stmt(s.Else, cloneStates(states))
		} else {
			elseStates = states
		}
		return append(thenStates, elseStates...)
	case *ast.ForStmt:
		if s.Init != nil {
			states = w.stmt(s.Init, states)
		}
		if s.Cond != nil {
			states = w.applyCalls(s.Cond, states)
		}
		w.loopBody(s.Body, s.Post, s.Pos(), states)
		return states
	case *ast.RangeStmt:
		states = w.applyCalls(s.X, states)
		w.loopBody(s.Body, nil, s.Pos(), states)
		return states
	case *ast.SwitchStmt:
		if s.Init != nil {
			states = w.stmt(s.Init, states)
		}
		if s.Tag != nil {
			states = w.applyCalls(s.Tag, states)
		}
		return w.caseBodies(s.Body, states, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			states = w.stmt(s.Init, states)
		}
		return w.caseBodies(s.Body, states, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		return w.caseBodies(s.Body, states, true)
	default:
		// Expression-bearing simple statements: assignments, expression
		// statements, sends, declarations, increments.
		return w.applyCalls(s, states)
	}
}

func cloneStates(states []lockSet) []lockSet {
	out := make([]lockSet, len(states))
	for i, s := range states {
		out[i] = s.clone()
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// caseBodies simulates each clause from a fork of the incoming states and
// unions the exits; without a default, the fall-past path keeps the
// incoming states too.
func (w *ldFunc) caseBodies(body *ast.BlockStmt, states []lockSet, exhaustive bool) []lockSet {
	var out []lockSet
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				// The communication op itself carries no lock calls worth
				// modeling; simulate the body.
			}
			list = c.Body
		}
		out = append(out, w.stmts(list, cloneStates(states))...)
	}
	if !exhaustive || len(body.List) == 0 {
		out = append(out, states...)
	}
	return out
}

// loopBody checks that one iteration is lock-neutral: the body (plus post
// statement) must complete with exactly the states it entered with, or the
// second iteration deadlocks or double-releases.
func (w *ldFunc) loopBody(body *ast.BlockStmt, post ast.Stmt, pos token.Pos, states []lockSet) {
	entry := dedupStates(cloneStates(states))
	exit := w.stmts(body.List, cloneStates(states))
	if post != nil {
		exit = w.stmt(post, exit)
	}
	exit = dedupStates(exit)
	if len(exit) == 0 {
		return // every path leaves the loop; nothing re-enters
	}
	if !sameStates(entry, exit) {
		w.reportf(pos, "lock state changes across a loop iteration: a lock acquired in the body must be released before the next iteration")
	}
}

// checkExit reports every lock still held at an exit that no deferred
// Unlock covers.
func (w *ldFunc) checkExit(pos token.Pos, st lockSet) {
	var held []string
	for k := range st {
		if w.deferred[k] {
			continue
		}
		held = append(held, k)
	}
	sort.Strings(held)
	for _, k := range held {
		w.reportf(pos, "function can exit with %s still locked and no deferred unlock covers it", w.labelFor(k))
	}
}

func (w *ldFunc) labelFor(key string) string {
	label := w.labels[key]
	if label == "" {
		label = "a mutex"
	}
	if strings.HasSuffix(key, lockModeSuffix) {
		label += " (read-locked)"
	}
	return label
}

// applyCalls applies, in source order, the lock effects of every call in
// n (not descending into function literals) to each state.
func (w *ldFunc) applyCalls(n ast.Node, states []lockSet) []lockSet {
	if n == nil {
		return states
	}
	var calls []*ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := m.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	for _, call := range calls {
		w.applyCall(call, states)
	}
	return states
}

func (w *ldFunc) applyCall(call *ast.CallExpr, states []lockSet) {
	if recv, typ, method, ok := syncCall(w.info, call); ok && isLockType(typ) {
		key, label, ok := w.lockKeyFor(recv, method)
		if !ok {
			return
		}
		w.labels[key] = label
		base := strings.TrimSuffix(key, lockModeSuffix)
		for _, st := range states {
			switch method {
			case "Lock":
				if st[base] {
					w.reportf(call.Pos(), "%s.Lock while %s is already locked on this path: self-deadlock", label, label)
				} else if st[base+lockModeSuffix] {
					w.reportf(call.Pos(), "%s.Lock while holding %s.RLock: lock upgrades deadlock", label, label)
				}
				st[key] = true
			case "RLock":
				if st[base] {
					w.reportf(call.Pos(), "%s.RLock while holding %s.Lock: self-deadlock", label, label)
				} else if st[base+lockModeSuffix] {
					w.reportf(call.Pos(), "recursive %s.RLock on this path can deadlock with a pending writer", label)
				}
				st[key] = true
			case "Unlock", "RUnlock":
				if !st[key] {
					if !w.deferred[key] {
						w.reportf(call.Pos(), "%s.%s without a matching acquisition on this path", label, method)
					}
					continue
				}
				delete(st, key)
			}
		}
		return
	}
	// Self-deadlock through a sibling method: the callee's LocksReceiver
	// fact says which of its receiver's mutexes it takes.
	f := calleeFunc(w.info, call)
	if f == nil {
		return
	}
	var locks LocksReceiver
	if !w.pass.ImportObjectFact(f, &locks) {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	_, recvKey, ok := refKey(w.info, sel.X)
	if !ok {
		return
	}
	for _, fld := range locks.Fields {
		name := strings.TrimSuffix(fld, lockModeSuffix)
		base := recvKey
		if name != "" {
			base += "." + name
		}
		for _, st := range states {
			if st[base] || st[base+lockModeSuffix] {
				w.reportf(call.Pos(), "calls %s while holding %s, and %s locks it again: self-deadlock", f.Name(), w.labelFor(base), f.Name())
				break
			}
		}
	}
}

// objKey matches refKey's rendering for a bare object (its Ident case is
// fmt.Sprintf("%p", obj)), letting the fact phase express receiver-relative
// field paths.
func objKey(obj types.Object) string {
	return fmt.Sprintf("%p", obj)
}

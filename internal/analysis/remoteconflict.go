package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RemoteConflictAnalyzer is the static counterpart of the runtime shadow
// checker (internal/checker): it reports two remote accesses to the same
// target memory whose constant-folded byte intervals [disp, disp+count·
// extent) overlap, where at least one writes, neither pair is atomic, and
// no legalizing Order/Complete call separates them. The runtime checker
// finds these races when the workload happens to exercise them; this
// analyzer finds the constant-foldable subset before the program runs.
//
// The same linear discipline as the other analyzers applies — one
// statement list at a time, no cross-branch merging — so every report is
// a pair of accesses that definitely executes back to back. Same-package
// helpers are followed through their summaries: a helper's constant
// remote accesses on a target-memory argument splice into the caller's
// sequence, and a helper that may reach an ordering call acts as a
// barrier. Anything unprovable (non-constant displacement, a handle
// passed to unknown code) silently clears the affected state.
var RemoteConflictAnalyzer = &Analyzer{
	Name: "remoteconflict",
	Doc: "finds statically overlapping remote accesses: two constant-foldable\n" +
		"transfers to intersecting byte ranges of one target memory, at least\n" +
		"one a writer, with no Order/Complete between them and without atomic\n" +
		"semantics on both — the races the runtime shadow checker (WithChecker)\n" +
		"would flag, caught at analysis time. Helper calls are followed\n" +
		"through per-function summaries.",
	Run: runRemoteConflict,
}

// outstandingAcc is one not-yet-legalized access on a tracked handle.
type outstandingAcc struct {
	acc remoteAcc
	pos token.Pos
}

func runRemoteConflict(pass *Pass) {
	sums := summariesFor(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch b := n.(type) {
			case *ast.BlockStmt:
				checkConflictList(pass, sums, b.List)
			case *ast.CaseClause:
				checkConflictList(pass, sums, b.Body)
			case *ast.CommClause:
				checkConflictList(pass, sums, b.Body)
			}
			return true
		})
	}
}

func checkConflictList(pass *Pass, sums *pkgSummaries, stmts []ast.Stmt) {
	info := pass.TypesInfo
	outstanding := map[types.Object][]outstandingAcc{}

	trackTM := func(obj types.Object) bool { return isTargetMem(obj.Type()) }

	apply := func(call *ast.CallExpr) {
		eff := sums.effectsOfCall(info, call, trackTM)
		if eff == nil {
			return
		}
		for _, ev := range eff.events {
			if ev.barrier {
				outstanding = map[types.Object][]outstandingAcc{}
				continue
			}
			for _, prev := range outstanding[ev.obj] {
				if conflicting(prev.acc, ev.acc) {
					pass.Reportf(call.Pos(),
						"%s of bytes [%d,%d) overlaps the %s of bytes [%d,%d) at %s on the same target memory with a writer and nothing legalizing between them (separate them with Order/Complete or make both atomic)",
						ev.acc.op, ev.acc.lo, ev.acc.hi,
						prev.acc.op, prev.acc.lo, prev.acc.hi,
						pass.Fset.Position(prev.pos),
					)
					break
				}
			}
			outstanding[ev.obj] = append(outstanding[ev.obj], outstandingAcc{acc: ev.acc, pos: call.Pos()})
		}
		for obj := range eff.tmUnknown {
			delete(outstanding, obj)
		}
	}

	var deferred []*ast.CallExpr
	for _, stmt := range stmts {
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			deferred = append(deferred, ds.Call)
			continue
		}
		for _, call := range directCalls(stmt) {
			apply(call)
		}
	}
	for i := len(deferred) - 1; i >= 0; i-- {
		apply(deferred[i])
	}
}

// conflicting mirrors the runtime checker's verdict: intervals intersect,
// at least one side writes, and the pair is not atomic-vs-atomic.
func conflicting(a, b remoteAcc) bool {
	if a.hi <= b.lo || b.hi <= a.lo {
		return false
	}
	if !a.write && !b.write {
		return false
	}
	return !(a.atomic && b.atomic)
}

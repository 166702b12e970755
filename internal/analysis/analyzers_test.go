package analysis

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// The golden packages live under testdata/src — excluded from ./...
// wildcards (so rmalint never lints them) but loadable by explicit import
// path, which is what RunGolden does.

func TestLostRequest(t *testing.T) {
	RunGolden(t, LostRequestAnalyzer, "mpi3rma/internal/analysis/testdata/src/lostrequest")
}

func TestLostRequestField(t *testing.T) {
	RunGolden(t, LostRequestAnalyzer, "mpi3rma/internal/analysis/testdata/src/lostrequestfield")
}

func TestRemoteConflict(t *testing.T) {
	RunGolden(t, RemoteConflictAnalyzer, "mpi3rma/internal/analysis/testdata/src/remoteconflict")
}

func TestLockOrder(t *testing.T) {
	RunGolden(t, LockOrderAnalyzer, "mpi3rma/internal/analysis/testdata/src/lockorder")
	RunGolden(t, LockOrderAnalyzer, "mpi3rma/internal/analysis/testdata/src/lockorderok")
}

// TestLostRequestCross exercises the findings that need the
// interprocedural tier (requests returned by helpers, helpers that
// complete).
func TestLostRequestCross(t *testing.T) {
	RunGolden(t, LostRequestAnalyzer, "mpi3rma/internal/analysis/testdata/src/lostrequestx")
}

// diagsWithoutInterproc runs one analyzer over a golden package with the
// interprocedural tier switched off — the exact behavior of the previous
// rmalint generation — so the pin tests below can prove which findings
// are genuinely cross-function.
func diagsWithoutInterproc(t *testing.T, analyzer *Analyzer, pkgPath string) []Diagnostic {
	t.Helper()
	interprocDisabled = true
	defer func() { interprocDisabled = false }()
	pkgs, err := Load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	return Run(pkgs, []*Analyzer{analyzer}).Diagnostics
}

// TestLostRequestCrossPin: without summaries the helper-producer finding
// disappears (fire's returned request is invisible) and the
// helper-completes case regresses into a false positive (the discarded
// Put in completesViaHelper is flagged because finish's Complete is
// invisible too).
func TestLostRequestCrossPin(t *testing.T) {
	diags := diagsWithoutInterproc(t, LostRequestAnalyzer, "mpi3rma/internal/analysis/testdata/src/lostrequestx")
	var fire, put int
	for _, d := range diags {
		if strings.Contains(d.Message, "request returned by fire") {
			fire++
		}
		if strings.Contains(d.Message, "request returned by Put") {
			put++
		}
	}
	if fire != 0 {
		t.Errorf("helper-producer finding needs summaries, but it survived with them disabled")
	}
	// The golden has one direct discarded Put (bareProducerStatement);
	// disabling summaries adds the completesViaHelper false positive.
	if put != 2 {
		t.Errorf("with summaries disabled want 2 discarded-Put findings (direct + regressed false positive), got %d", put)
	}
}

// TestRemoteConflictCrossPin: the three direct overlaps still fire, the
// helper-spliced one (helperThenDirect) needs the summary and vanishes.
func TestRemoteConflictCrossPin(t *testing.T) {
	diags := diagsWithoutInterproc(t, RemoteConflictAnalyzer, "mpi3rma/internal/analysis/testdata/src/remoteconflict")
	if len(diags) != 3 {
		t.Errorf("with summaries disabled want the 3 direct conflicts only, got %d:", len(diags))
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}

// typeCheckSrc type-checks one import-free source file into a Package for
// unit tests that need real types.Info without touching the loader.
func typeCheckSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("x", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type check: %v", err)
	}
	return &Package{Path: "x", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

// TestCallGraph pins the SCC decomposition: bottom-up order, recursion
// detection for self-loops and mutual cycles.
func TestCallGraph(t *testing.T) {
	pkg := typeCheckSrc(t, `package x

func a() { b(); c() }
func b() { c() }
func c() {}
func d() { e() }
func e() { d() }
func f() { f() }
`)
	g := buildCallGraph(pkg)
	fn := func(name string) *types.Func {
		obj, _ := pkg.Types.Scope().Lookup(name).(*types.Func)
		if obj == nil {
			t.Fatalf("no function %s", name)
		}
		return obj
	}
	pos := map[string]int{}
	for i, n := range g.order {
		pos[n.fn.Name()] = i
	}
	if len(g.order) != 6 {
		t.Fatalf("order has %d nodes, want 6", len(g.order))
	}
	// Bottom-up: callees precede callers (outside their own SCC).
	if !(pos["c"] < pos["b"] && pos["b"] < pos["a"]) {
		t.Errorf("order not bottom-up: c=%d b=%d a=%d", pos["c"], pos["b"], pos["a"])
	}
	for _, name := range []string{"a", "b", "c"} {
		if g.recursive(fn(name)) {
			t.Errorf("%s wrongly marked recursive", name)
		}
	}
	for _, name := range []string{"d", "e", "f"} {
		if !g.recursive(fn(name)) {
			t.Errorf("%s not marked recursive", name)
		}
	}
	if g.sccSize[g.nodes[fn("d")].scc] != 2 {
		t.Errorf("d/e component size = %d, want 2", g.sccSize[g.nodes[fn("d")].scc])
	}
}

// TestReportRoundTrip pins the -json schema: encode/decode is lossless,
// and the decoder rejects unknown versions and unknown fields.
func TestReportRoundTrip(t *testing.T) {
	res := &Result{
		Diagnostics: []Diagnostic{
			{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Analyzer: "remoteconflict", Message: "boom"},
			{Pos: token.Position{Filename: "b.go", Line: 9, Column: 1}, Analyzer: "lockorder", Message: "bang"},
		},
		Suppressed: map[string]int{"lostrequest": 2},
	}
	rep := NewReport(All(), res)
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
	if got.Version != ReportVersion || len(got.Analyzers) != len(All()) {
		t.Errorf("decoded header wrong: %+v", got)
	}
	if _, err := DecodeReport(strings.NewReader(`{"version":99,"analyzers":[],"findings":[]}`)); err == nil {
		t.Error("decoder accepted unknown version 99")
	}
	if _, err := DecodeReport(strings.NewReader(`{"version":1,"analyzers":[],"findings":[],"bogus":true}`)); err == nil {
		t.Error("decoder accepted unknown field")
	}
}

// TestSuppressionValidation pins the ignore-comment contract: a known
// analyzer name (or "all") plus a mandatory reason.
func TestSuppressionValidation(t *testing.T) {
	at := func(line int) token.Position { return token.Position{Filename: "f.go", Line: line} }
	parsed := []suppression{
		{name: "lostrequest", reason: "the attrs always fold in blocking", pos: at(1)},
		{name: "all", reason: "generated file", pos: at(2)},
		{name: "", reason: "", pos: at(3)},
		{name: "nosuchanalyzer", reason: "whatever", pos: at(4)},
		{name: "lockorder", reason: "", pos: at(5)},
	}
	var diags []Diagnostic
	validateSuppressions(parsed, All(), &diags)
	if len(diags) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(diags), diags)
	}
	wants := []struct {
		line int
		sub  string
	}{
		{3, "without an analyzer name"},
		{4, `unknown analyzer "nosuchanalyzer"`},
		{5, "without a reason"},
	}
	for i, w := range wants {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.sub) {
			t.Errorf("violation %d = %s, want line %d containing %q", i, diags[i], w.line, w.sub)
		}
		if diags[i].Analyzer != "suppression" {
			t.Errorf("violation %d reported under %q, want \"suppression\"", i, diags[i].Analyzer)
		}
	}
}

// TestSuppressionParsing pins the //rmalint:ignore scope rules: same line
// and the line below, per-analyzer when named, everything when bare.
func TestSuppressionParsing(t *testing.T) {
	s := suppressions{"f.go": {10: {"lostrequest"}, 20: {""}}}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "lostrequest", true},
		{11, "lostrequest", true}, // line below the comment
		{12, "lostrequest", false},
		{10, "lockorder", false}, // named suppression is per-analyzer
		{20, "lockorder", true},  // bare ignore mutes everything
		{21, "remoteconflict", true},
	}
	for _, c := range cases {
		got := s.covers(token.Position{Filename: "f.go", Line: c.line}, c.analyzer)
		if got != c.want {
			t.Errorf("covers(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

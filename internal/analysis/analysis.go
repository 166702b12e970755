// Package analysis is a small, dependency-free static-analysis framework
// for the rmalint checks (cmd/rmalint). It deliberately mirrors the shape
// of golang.org/x/tools/go/analysis — Analyzer, Pass, Reportf — but is
// built on the standard library alone: packages load through `go list
// -export` and the gc export-data importer (see load.go), so the linter
// works in the hermetic build environments this repository targets.
//
// Diagnostics can be suppressed at the use site with a comment:
//
//	//rmalint:ignore lostrequest reason the suppression is sound
//
// on the same line as the diagnostic or the line above it. The analyzer
// name "all" suppresses every analyzer on that line. The reason is
// mandatory: an ignore comment without a known analyzer name (or "all")
// and a non-empty reason is itself reported, under the non-suppressible
// analyzer name "suppression".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in reports and suppression comments
	// (lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description, shown by rmalint -list.
	Doc string
	// Run inspects pass's package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suppress   suppressions
	diags      *[]Diagnostic
	suppressed map[string]int
}

// Diagnostic is one finding, located by full position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Result is the outcome of one Run: the findings that survived
// suppression, plus how many each analyzer had suppressed (the audit
// trail the JSON report carries so fire-and-forget ignores stay visible).
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed counts muted findings per analyzer name.
	Suppressed map[string]int
}

// Reportf records a finding at pos unless a suppression comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.covers(position, p.Analyzer.Name) {
		p.suppressed[p.Analyzer.Name]++
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed //rmalint:ignore comment.
type suppression struct {
	name   string // analyzer name, or "" meaning all
	reason string
	pos    token.Position
}

// suppressions maps file/line to the ignore comments that cover it. The
// empty name means "all analyzers".
type suppressions map[string]map[int][]string

func (s suppressions) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	// A comment suppresses its own line and the line below it.
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == "" || name == analyzer {
				return true
			}
		}
	}
	return false
}

// collectSuppressions scans every comment of the package's files for
// rmalint:ignore markers and parses them into per-line analyzer sets.
func collectSuppressions(fset *token.FileSet, files []*ast.File) ([]suppression, suppressions) {
	var parsed []suppression
	s := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//rmalint:ignore")
				if !ok {
					continue
				}
				sup := suppression{pos: fset.Position(c.Pos())}
				if fields := strings.Fields(text); len(fields) > 0 {
					sup.name = fields[0]
					sup.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				parsed = append(parsed, sup)

				name := sup.name
				if name == "all" {
					name = ""
				}
				lines := s[sup.pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					s[sup.pos.Filename] = lines
				}
				lines[sup.pos.Line] = append(lines[sup.pos.Line], name)
			}
		}
	}
	return parsed, s
}

// validateSuppressions enforces the ignore-comment contract — a known
// analyzer name (or "all") plus a non-empty reason — and reports
// violations under the reserved, non-suppressible analyzer name
// "suppression".
func validateSuppressions(parsed []suppression, analyzers []*Analyzer, diags *[]Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, sup := range parsed {
		var msg string
		switch {
		case sup.name == "":
			msg = "rmalint:ignore without an analyzer name: name the analyzer being suppressed (or \"all\") and give a reason"
		case !known[sup.name]:
			msg = fmt.Sprintf("rmalint:ignore names unknown analyzer %q (use rmalint -list, or \"all\")", sup.name)
		case sup.reason == "":
			msg = fmt.Sprintf("rmalint:ignore %s without a reason: every suppression must say why it is sound", sup.name)
		default:
			continue
		}
		*diags = append(*diags, Diagnostic{Pos: sup.pos, Analyzer: "suppression", Message: msg})
	}
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position, plus per-analyzer suppression counts.
// Malformed //rmalint:ignore comments are themselves findings (analyzer
// "suppression") and cannot be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{Suppressed: map[string]int{}}
	for _, pkg := range pkgs {
		parsed, sup := collectSuppressions(pkg.Fset, pkg.Files)
		validateSuppressions(parsed, analyzers, &res.Diagnostics)
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				suppress:   sup,
				diags:      &res.Diagnostics,
				suppressed: res.Suppressed,
			})
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// All returns the rmalint analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LostRequestAnalyzer,
		RemoteConflictAnalyzer,
		LockOrderAnalyzer,
	}
}

// Command rmalint is the static analyzer suite for this repository's RMA
// interfaces: it checks code using the rma facade and internal/core for
// one-sided correctness mistakes neither the type system nor the
// runtime's own error returns can report — lost requests, statically
// overlapping accesses, and inversions of the engine's lock hierarchy.
//
// Usage:
//
//	rmalint [flags] [packages]
//
// Packages default to ./... (go-list patterns). Flags:
//
//	-only name[,name]  run only the named analyzers
//	-list              print the analyzers and exit
//	-json              emit the versioned findings report as JSON
//
// Findings print as path:line:col: message [analyzer]; -json emits the
// analysis.Report schema (version, analyzers run, findings, suppressed
// counts per analyzer). Exit codes: 0 when clean, 1 when findings were
// reported, 2 on a load or internal error. Suppress a finding at its use
// site with a //rmalint:ignore <analyzer> <reason> comment on the same
// line or the line above; the reason is mandatory and the analyzer name
// must be known (or "all").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpi3rma/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as JSON")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s\n%s\n\n", a.Name, indent(a.Doc))
		}
		return
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "rmalint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
		os.Exit(2)
	}

	// The analyzers' own golden inputs (and any future fixtures) live in
	// testdata trees; go-list wildcards already skip them, but explicit
	// patterns should too.
	kept := pkgs[:0]
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/testdata/") {
			continue
		}
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "rmalint: %s: %v (analyzing anyway)\n", p.Path, terr)
		}
		kept = append(kept, p)
	}

	res := analysis.Run(kept, analyzers)
	if *asJSON {
		if err := analysis.NewReport(analyzers, res).Encode(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rmalint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Printf("%s:%d:%d: %s [%s]\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(s, "\n", "\n    ")
}

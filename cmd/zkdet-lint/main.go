// Command zkdet-lint runs the repo's static-analysis suite: eight analyzers
// enforcing invariants the type system cannot see — canonical crypto
// comparisons, error comparison, ceremony-secret hygiene, gas-metered state
// writes, annotated lock discipline, panic-free library code,
// consensus-replay determinism, and internal code that only tests reach —
// plus the circuit soundness auditor over every registered application
// circuit. See DESIGN.md §9 and §16.
//
// Usage:
//
//	zkdet-lint [-only analyzer[,analyzer]] [-json] [packages]
//	zkdet-lint -audit [-json]
//
// Packages default to ./... relative to the enclosing module; whatever they
// name, the whole module is loaded, since testonly counts references from
// every package and reports on the requested ones. With -audit
// the source analyzers are skipped and every circuit in the audit registry
// is built and audited instead; findings are positioned as
// "circuit:<name>".
//
// Exit status:
//
//	0  clean
//	1  findings from more than one analyzer
//	2  load or usage error
//	3+ findings from exactly one analyzer — its dedicated code (see -list)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/zkdet/zkdet/cmd/zkdet-lint/internal/lint"
	"github.com/zkdet/zkdet/internal/circuit/audit"
	"github.com/zkdet/zkdet/internal/circuit/audit/registry"
)

// exitCodes maps each analyzer to its dedicated exit status, so CI jobs
// and scripts can tell *which* invariant failed without parsing output.
// Codes 0–2 are reserved (clean, mixed findings, load error).
var exitCodes = map[string]int{
	"cryptocompare": 3,
	"errcompare":    4,
	"secretscope":   5,
	"gaspurity":     6,
	"lockguard":     7,
	"panicfree":     8,
	"detreplay":     9,
	"audit":         10,
	"lint":          11, // malformed //lint:ignore directives
	"testonly":      12,
}

// jsonDiag is the machine-readable rendering of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Rule     string `json:"rule,omitempty"` // audit findings only
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers with their exit codes and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	runAudit := flag.Bool("audit", false, "audit every registered circuit instead of running source analyzers")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		printList(os.Stdout, analyzers)
		return
	}

	var diags []jsonDiag
	if *runAudit {
		diags = auditCircuits()
	} else {
		diags = lintPackages(analyzers, *only, flag.Args())
	}

	render(diags, *asJSON)
	os.Exit(exitStatus(diags))
}

// printList prints each analyzer with its exit code and doc, then the
// circuit auditor's.
func printList(w io.Writer, analyzers []*lint.Analyzer) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "%-14s exit %-2d %s\n", a.Name, exitCodes[a.Name], a.Doc)
	}
	fmt.Fprintf(w, "%-14s exit %-2d %s\n", "audit", exitCodes["audit"],
		"circuit soundness auditor over the registered application circuits (-audit)")
}

// lintPackages runs the source analyzers over the requested packages.
func lintPackages(analyzers []*lint.Analyzer, only string, patterns []string) []jsonDiag {
	if only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fatalf("zkdet-lint: unknown analyzer %q", name)
		}
		analyzers = filtered
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatalf("zkdet-lint: %v", err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatalf("zkdet-lint: %v", err)
	}
	// The whole module is loaded whatever the patterns name: testonly
	// reads every package's references, and reports on the requested ones.
	module, err := loader.LoadModule()
	if err != nil {
		fatalf("zkdet-lint: %v", err)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fatalf("zkdet-lint: %v", err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, "")
		if err != nil {
			fatalf("zkdet-lint: %v", err)
		}
		pkgs = append(pkgs, pkg)
	}

	var out []jsonDiag
	for _, d := range lint.RunAnalyzers(module, pkgs, analyzers) {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// auditCircuits builds every registry entry and audits its constraint
// system. A circuit that fails to build is itself a finding (the builder
// error would otherwise hide whatever the auditor might have said).
func auditCircuits() []jsonDiag {
	var out []jsonDiag
	for _, e := range registry.Entries() {
		info, err := e.Build()
		if err != nil {
			out = append(out, jsonDiag{
				File:     "circuit:" + e.Name,
				Analyzer: "audit",
				Rule:     audit.RuleBuilderError,
				Message:  err.Error(),
			})
			continue
		}
		for _, f := range audit.Circuit(info).Findings {
			out = append(out, jsonDiag{
				File:     "circuit:" + e.Name,
				Analyzer: "audit",
				Rule:     f.Rule,
				Message:  f.String(),
			})
		}
	}
	return out
}

// render prints the findings, as text lines or one JSON array.
func render(diags []jsonDiag, asJSON bool) {
	if asJSON {
		if diags == nil {
			diags = []jsonDiag{} // emit [] rather than null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatalf("zkdet-lint: %v", err)
		}
		return
	}
	for _, d := range diags {
		if d.Line > 0 {
			fmt.Printf("%s:%d: %s: %s\n", d.File, d.Line, d.Analyzer, d.Message)
		} else {
			fmt.Printf("%s: %s: %s\n", d.File, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "zkdet-lint: %d finding(s)\n", len(diags))
	}
}

// exitStatus picks the process exit code: 0 when clean, the offending
// analyzer's dedicated code when exactly one analyzer reported, 1 when
// several did.
func exitStatus(diags []jsonDiag) int {
	if len(diags) == 0 {
		return 0
	}
	names := map[string]bool{}
	for _, d := range diags {
		names[d.Analyzer] = true
	}
	if len(names) == 1 {
		for name := range names {
			if code, ok := exitCodes[name]; ok {
				return code
			}
		}
	}
	return 1
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

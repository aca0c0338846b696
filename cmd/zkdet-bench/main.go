// Command zkdet-bench regenerates the tables and figures of the paper's
// evaluation (§VI) on the local machine and prints each as the Markdown
// table EXPERIMENTS.md holds, under one line naming the commit and host.
//
// Usage:
//
//	zkdet-bench [-scale small|medium] [artifact ...]
//
// The artifacts are fig5, fig6, fig7, table1, table2, proofsize,
// constraints, cipher, commitment, decouple and p2p; none named means all
// of them. Absolute times are not expected to match the paper (this is a
// from-scratch Go Plonk prover, not Snarkjs on the authors' i9-11900K);
// the shapes — growing proving time, constant π_k, flat verification, gas
// magnitudes — are the reproduction targets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/zkdet/zkdet/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams; it returns the exit
// code: 2 for a bad argument, 1 for a failed artifact.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zkdet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "workload size: small or medium")
	names := make([]string, len(bench.Artifacts))
	for i, a := range bench.Artifacts {
		names[i] = a.Name
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: zkdet-bench [-scale small|medium] [artifact ...]\nartifacts (default all): %s\n",
			strings.Join(names, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	sc, ok := bench.Scales[*scale]
	if !ok {
		fmt.Fprintf(stderr, "zkdet-bench: unknown scale %q\n", *scale)
		fs.Usage()
		return 2
	}
	artifacts := bench.Artifacts
	if fs.NArg() > 0 {
		artifacts = nil
		for _, name := range fs.Args() {
			i := slices.Index(names, name)
			if i < 0 {
				fmt.Fprintf(stderr, "zkdet-bench: unknown artifact %q\n", name)
				fs.Usage()
				return 2
			}
			artifacts = append(artifacts, bench.Artifacts[i])
		}
	}

	fmt.Fprintf(stdout, "zkdet-bench -scale %s: %s\n", *scale, bench.Environment())
	s := bench.NewSession(sc)
	for _, a := range artifacts {
		tables, err := a.Run(s)
		if err != nil {
			fmt.Fprintf(stderr, "zkdet-bench: %s: %v\n", a.Name, err)
			return 1
		}
		paper := "Not in the paper."
		if a.Paper != "" {
			paper = "Paper: " + a.Paper
		}
		fmt.Fprintf(stdout, "\n## %s\n\n%s\n", a.Title, paper)
		for _, t := range tables {
			writeTable(stdout, t)
		}
	}
	return 0
}

// writeTable prints t as Markdown.
func writeTable(w io.Writer, t bench.Table) {
	if t.Caption != "" {
		fmt.Fprintf(w, "\n%s\n", t.Caption)
	}
	fmt.Fprintf(w, "\n| %s |\n|%s\n", strings.Join(t.Header, " | "), strings.Repeat("---|", len(t.Header)))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			switch v := c.(type) {
			case time.Duration:
				cells[i] = bench.FormatSeconds(v.Seconds())
			case float64:
				cells[i] = fmt.Sprintf("%.1f", v)
			default:
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
}

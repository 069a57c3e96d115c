// Command disclosurebench runs one experiment of the evaluation harness
// (internal/bench): the paper's Figure 5 (disclosure-labeler throughput),
// Figure 6 (policy-checker throughput) and footnote 3 (schema scaling)
// over the Facebook schema and security-view catalog of Section 7.2, and
// the systems experiments around them.
//
// Usage:
//
//	disclosurebench -exp NAME [experiment flags] [-json]
//	disclosurebench -exp NAME -h    # the flags NAME takes, with defaults
//
// Every experiment prints one report: its environment, its configuration,
// one row per measured point and the derived summary. -json emits the same
// report as indented JSON, the BENCH_<exp>.json archive format. An unknown
// -exp, or a flag the chosen experiment does not take, is a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and runs the chosen experiment, returning the exit
// code: 0 on success, 1 when the experiment fails or is unknown, 2 on a
// flag the experiment does not take.
func run(args []string, stdout, stderr io.Writer) int {
	name := experimentArg(args)
	var exp *bench.Experiment
	names := make([]string, len(bench.Experiments))
	for i := range bench.Experiments {
		names[i] = bench.Experiments[i].Name
		if names[i] == name {
			exp = &bench.Experiments[i]
		}
	}
	if exp == nil {
		fmt.Fprintf(stderr, "disclosurebench: unknown experiment %q (want %s)\n", name, strings.Join(names, ", "))
		return 1
	}
	fs := flag.NewFlagSet("disclosurebench -exp "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.String("exp", name, "experiment to run: "+strings.Join(names, ", "))
	jsonOut := fs.Bool("json", false, "emit indented JSON (the BENCH_<exp>.json archive format)")
	runExp := exp.Flags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: disclosurebench -exp %s [flags]\n%s: %s\n", name, name, exp.Doc)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "disclosurebench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	report, err := runExp()
	if err != nil {
		fmt.Fprintln(stderr, "disclosurebench:", err)
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(report)
	} else {
		_, err = io.WriteString(stdout, bench.FormatText(report))
	}
	if err != nil {
		fmt.Fprintln(stderr, "disclosurebench:", err)
		return 1
	}
	return 0
}

// experimentArg returns the value of the -exp flag in args (figure5 when
// absent), found before parsing because it decides which flags exist.
func experimentArg(args []string) string {
	name := "figure5"
	for i, a := range args {
		if a == "--" {
			break
		}
		if !strings.HasPrefix(a, "-") {
			continue
		}
		a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
		if v, ok := strings.CutPrefix(a, "exp="); ok {
			name = v
		} else if a == "exp" && i+1 < len(args) {
			name = args[i+1]
		}
	}
	return name
}

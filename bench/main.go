// Command bench is the repository's benchmark: open-loop workloads driven
// over loopback TCP against real pubsub-server daemons, a traced in-process
// run that splits the delivery latency by layer, and a comparison tool for
// two sets of results. See README.md beside this file.
//
//	bench run -workload W -seed S [-trace 0|1] [-seconds N] [-out FILE] [-spans FILE]
//	bench check A B
//
// run -trace 0 is the untraced run that yields the end-to-end metrics,
// -trace 1 the traced run that yields the per-layer ones; either way the
// last line of standard output is the result as one JSON object. run.sh,
// the command BENCHMARK.json names, hands the driver's flags to run.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench run|check ... (see bench/README.md)")
		return 2
	}
	switch args[0] {
	case "check":
		return cmdCheck(args[1:])
	case "run":
		args = args[1:]
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown command %q (want run or check)\n", args[0])
		return 2
	}

	var cfg runConfig
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	cfg.flags(fs)
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	spans := fs.String("spans", "", "-trace 1: write the recorded spans to this file as JSONL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := cfg.resolve(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	cfg.scratch = new(scratchDir)
	cfg.scratch.removeOnSignal()
	defer cfg.scratch.remove()

	var res result
	launch, err := daemonLauncher(&cfg)
	if err == nil {
		if *trace == 1 {
			res, err = runTraced(&cfg, launch, *spans)
		} else {
			res, err = runUntraced(&cfg, launch)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendResult(cfg.out, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Println(res.driverLine())
	if !res.Correct {
		return 1
	}
	return 0
}

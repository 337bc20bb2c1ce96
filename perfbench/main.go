// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds it and the programs it drives (slugger, serve,
// fedserve) from the source tree, then runs
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench -bin DIR -work DIR compare PARENT_RUNS CHANGE_RUNS
//	perfbench -bin DIR -work DIR inputs FIRST_SEED LAST_SEED
//
// A run generates the workload's input from the seed, builds its
// artifact with slugger, starts the servers until their first correct
// answer, drives them open-loop at the nominal rate and up a rate
// ladder, checks every served answer against an oracle, and prints its
// metrics: a table, a "perfbench-record" line with every metric for
// the comparator, and finally one JSON result line. With --trace 1 it
// prints the per-layer metrics instead, from an in-process replay of
// the layers and the servers' /stats counters, and writes the run's
// spans to DIR/traces. It exits non-zero when any check fails.
//
// compare reads two files of saved run output and prints, per workload
// and end-to-end metric, both sides' medians and quartiles, the share
// of seed-matched pairs the change won, and a verdict. inputs prints the
// input table recorded in workloads.json. The workloads, their
// parameters and every metric's meaning are in workloads.json. Linux
// only: it reads /proc and sleeps with nanosleep.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		bin      = flag.String("bin", "", "directory holding the slugger, serve and fedserve binaries")
		work     = flag.String("work", ".bench_build", "directory for run scratch files and traces")
		workload = flag.String("workload", "", "workload to run (see workloads.json)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "load-generation time of the run")
		trace    = flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	switch flag.Arg(0) {
	case "compare":
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT_RUNS CHANGE_RUNS")
			return 2
		}
		if err := compareFiles(os.Stdout, cfg, flag.Arg(1), flag.Arg(2)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case "inputs":
		lo, err1 := strconv.ParseInt(flag.Arg(1), 10, 64)
		hi, err2 := strconv.ParseInt(flag.Arg(2), 10, 64)
		if flag.NArg() != 3 || err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "usage: perfbench inputs FIRST_SEED LAST_SEED")
			return 2
		}
		if err := printInputs(os.Stdout, cfg, lo, hi); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case "":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown command %q\n", flag.Arg(0))
		return 2
	}
	w, err := cfg.workload(*workload)
	if err != nil || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, a known --workload, --seconds > 0 and --trace 0 or 1:", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("run-%s-seed%d-%d", w.Name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{
		cfg: cfg, w: w, seed: *seed, secs: *seconds, trace: *trace == 1,
		ps:  &procs{bin: absBin, dir: dir},
		dir: dir, out: filepath.Join(*work, "traces"),
		m: map[string]float64{},
	}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !r.report(os.Stdout) {
		return 1
	}
	return 0
}

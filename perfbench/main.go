// Command perfbench is the repository's benchmark: per-convergence cost
// on two simulator workloads and steady-state upkeep of a loopback tcp
// cluster, end to end from untraced runs through the public entry
// points, and layer by layer from a separate traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload gnp40-corrupt --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones and writes a trace
// file and a CPU profile of the traced run under <out>/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	// The calibrations and the operations they bracket run on one thread.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
	out     string
	log     io.Writer
}

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts operations; every failure is logged and counted, never
// dropped.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// record counts one operation and reports whether it succeeded.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "run seed (recorded; every workload pins its instance)")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "tiny instances, for the benchmark's own tests")
	out := fs.String("out", ".bench_build", "directory for trace files and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, smoke: *smoke, out: *out, log: stderr}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		w.name, opts.seed, opts.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := measure(w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload in the mode opts selects. An error means the
// instance could not be built at all; failed operations are in the
// result instead.
func measure(w workload, opts options) (result, error) {
	t := &tally{log: opts.log}
	var m metrics
	var err error
	switch {
	case w.tcp && opts.trace:
		m, err = traceTCP(w, opts, t)
	case w.tcp:
		m, err = measureTCP(w, opts, t)
	case opts.trace:
		m, err = traceSim(w, opts, t)
	default:
		m, err = measureSim(w, opts, t)
	}
	if err != nil {
		return result{}, err
	}
	if t.attempted == 0 {
		return result{}, fmt.Errorf("no operation ran")
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

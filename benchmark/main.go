// Command benchmark is the one-command serving benchmark: it starts the
// real irsd and irsrouter binaries as child processes, loads seed-made
// keys through the client API, drives one named workload, checks every
// response, and prints every metric with its unit. See README.md.
//
// It is started by run.sh, which builds the daemons and this program into
// .bench_build/ first:
//
//	bash benchmark/run.sh --workload sample_light --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/irsgo/irs/benchmark/loadgen"
)

// buildDir is where run.sh puts the binaries and where every scratch file
// of a run goes: inside the checkout, and named in .gitignore.
const buildDir = ".bench_build"

// runLimit bounds one workload run, set-up to teardown; past it the
// children are killed and the command fails.
const runLimit = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed     = flag.Uint64("seed", 1, "seed of the keys and the request stream")
		seconds  = flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json; 2 with -quick)")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced replay and prints the per-layer metrics as the result line")
		traceOut = flag.String("trace-out", "", "span file of the traced replay (default .bench_build/trace-<workload>.json)")
		out      = flag.String("out", "", "also write every metric as JSON to this file")
		repeat   = flag.Int("repeat", 1, "run each workload this many times, alternating, and print median, quartiles and bound verdicts")
		quick    = flag.Bool("quick", false, "smoke run: 2 s window, 100k keys, one set-up; same checks, numbers not comparable")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bash benchmark/run.sh --workload <name|all> [--seed n] [--seconds s] [--trace 0|1] [--repeat k] [--quick] [--out file]")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s, or all)\n", *name, workloadNames())
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	// The generator is one process on one P on CPU 0; every daemon gets the
	// rest of the machine, by GOMAXPROCS and by affinity. GOMAXPROCS alone
	// does not keep them apart: the kernel likes to wake a server's thread
	// on the CPU of the client that wrote to it, and two busy threads then
	// share one CPU for seconds while the other idles — measured here as
	// whole runs at half their usual throughput. The main goroutine keeps
	// its thread for the process's life: children are forked from it (they
	// inherit its affinity for the moment of the fork) and are bound to it
	// by the parent-death signal.
	runtime.LockOSThread()
	runtime.GOMAXPROCS(1)
	work, err := filepath.Abs(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	f := &fleet{binDir: filepath.Join(work, "bin"), workDir: work, procs: max(1, runtime.NumCPU()-1)}
	if n := runtime.NumCPU(); canPin && n > 1 {
		f.genCPUs = []int{0}
		for c := 1; c < n; c++ {
			f.daemonCPUs = append(f.daemonCPUs, c)
		}
		if err := pinSelf(f.genCPUs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	defer f.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v, stopping children\n", s)
		f.close()
		os.Exit(130)
	}()

	opt := options{seed: *seed, seconds: time.Duration(sp.RunSeconds) * time.Second, keys: 1_000_000, setups: 5, trace: *trace == 1, traceN: 1000}
	if *quick {
		opt.seconds, opt.keys, opt.setups, opt.traceN = 2*time.Second, 100_000, 1, 300
	}
	if *seconds > 0 {
		opt.seconds = time.Duration(*seconds) * time.Second
	}
	if opt.trace {
		// A traced run spends half its time on the daemons — the counter
		// ratios and lat_p50_us it needs settle quickly — and the rest of the
		// time cap on the replay. setup_s belongs to the untraced run.
		opt.setups = 1
		opt.seconds = max(opt.seconds/2, time.Second).Truncate(time.Second)
	}
	st := stamp{
		Commit: commit(), GoVersion: runtime.Version(), Kernel: kernelVersion(), NProc: runtime.NumCPU(),
		GenProcs: 1, ChildProcs: f.procs, Seed: *seed, Keys: opt.keys, WarmupS: warmup.Seconds(), WindowS: opt.seconds.Seconds(),
		Quick: *quick, Traced: opt.trace, Precise: loadgen.PreciseSleep, Args: os.Args[1:],
	}
	st.print(os.Stdout)

	var all []*result
	exit := 0
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range todo {
			o := opt
			o.seed += uint64(rep) // each repeat is another seed, as the driver's runs are
			if o.trace {
				o.traceOut = *traceOut
				if o.traceOut == "" {
					o.traceOut = filepath.Join(f.workDir, "trace-"+w.name+".json")
				}
			}
			res, err := runGuarded(f, w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			res.print(os.Stdout)
			if !res.Correct {
				exit = 1
			}
			line, err := res.contractLine(sp, o.trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			// One result line per run; for a single run it is the last line
			// of standard output, as the driver reads it.
			fmt.Println(line)
			all = append(all, res)
		}
	}
	if *repeat > 1 {
		summarize(os.Stdout, sp, todo, all)
	}
	if *out != "" {
		if err := writeOut(*out, st, all); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return exit
}

// runGuarded is runWorkload under the run limit, with the children and
// scratch directories of the run gone when it returns, however it ends.
func runGuarded(f *fleet, w workload, opt options) (*result, error) {
	guard := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded the %v run limit, stopping children\n", w.name, runLimit)
		f.close()
		os.Exit(2)
	})
	defer guard.Stop()
	defer f.close()
	return runWorkload(f, w, opt)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// commit is the checkout's commit, or "unknown" outside a git repository
// (the driver's checkouts are not one).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Do not wander into a repository the checkout happens to sit in.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// runSelfcheck answers "does the benchmark agree with itself?": for each
// workload it makes two interleaved sets (A B A B …) of n full runs of this
// same binary, every run with its own seed, and compares the sets' medians
// per end-to-end metric against the metric's bound, the way the driver
// compares a change with its parent. With neighbour, a busy loop pinned to
// one CPU runs during set B only: calibrated timings must still agree while
// the raw ones visibly do not. Returns the process exit code.
func runSelfcheck(cfg config, n int, neighbour bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	workloads := workloadNames
	if cfg.workload != "" {
		if !validWorkload(cfg.workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
			return 2
		}
		workloads = []string{cfg.workload}
	}
	failed := false
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := i % 2
			var stop func()
			if neighbour && set == 1 {
				stop = startNeighbour()
			}
			vals, err := childRun(self, w, cfg.seed+uint64(i), cfg.seconds)
			if stop != nil {
				stop()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck %s run %d: %v\n", w, i, err)
				return 1
			}
			for k, v := range vals {
				sets[set][k] = append(sets[set][k], v)
			}
			fmt.Fprintf(os.Stderr, "selfcheck %s: run %d/%d (set %c) done\n", w, i+1, 2*n, 'A'+rune(set))
		}
		if !printSelfcheck(w, sets, neighbour) {
			failed = true
		}
	}
	if failed {
		fmt.Println("selfcheck: FAILED — two sets of runs of the same binary disagree by more than a bound")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}

// childRun runs one full untraced benchmark run in a child process and
// parses the "name value unit" lines it prints.
func childRun(self, workload string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			vals[f[0]] = v
		}
	}
	return vals, sc.Err()
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4) (exclusive), which
// is what the driver uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		j = max(1, min(j, len(s)-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// printSelfcheck prints the per-metric table of one workload and reports
// whether every end-to-end metric's set medians agree within its bound.
func printSelfcheck(workload string, sets [2]map[string][]float64, neighbour bool) bool {
	title := "two interleaved sets of the same binary"
	if neighbour {
		title = "set B ran beside a busy loop pinned to one CPU"
	}
	fmt.Printf("\n%s — %s (n=%d per set)\n", workload, title, len(sets[0]["op_p50_ms"]))
	fmt.Printf("%-22s %12s %9s %12s %9s %8s %7s  %s\n", "metric", "median A", "spread A", "median B", "spread B", "B vs A", "bound", "")
	ok := true
	row := func(name string, better string, bound float64) {
		a, b := sets[0][name], sets[1][name]
		if len(a) == 0 || len(b) == 0 {
			return
		}
		a1, a2, a3 := quartiles(a)
		b1, b2, b3 := quartiles(b)
		worse := (b2 - a2) / a2 // how much worse B's median reads than A's
		if better == "higher" {
			worse = (a2 - b2) / a2
		}
		verdict := ""
		if bound > 0 {
			verdict = "ok"
			if math.Abs(worse) > bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("%-22s %12.4f %8.1f%% %12.4f %8.1f%% %+7.1f%% %6.1f%%  %s\n",
				name, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*worse, 100*bound, verdict)
			return
		}
		fmt.Printf("%-22s %12.4f %8.1f%% %12.4f %8.1f%% %+7.1f%% %7s\n",
			name, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*worse, "—")
	}
	for _, d := range endToEnd {
		row(d.name, d.better, d.bound)
	}
	for _, d := range rawTwins {
		row(d.name, d.better, 0)
	}
	return ok
}

// startNeighbour keeps one CPU busy until the returned function is called:
// a spinning thread pinned to CPU 0, standing in for a neighbour VM that
// takes a core.
func startNeighbour() (stop func()) {
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Never unlocked: the pinned thread dies with this goroutine instead
		// of rejoining the scheduler's pool with its affinity narrowed.
		runtime.LockOSThread()
		var mask [16]uint64
		mask[0] = 1
		// Pinning is best effort: an unpinned spinner still takes a core.
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))) //nolint:errcheck
		var x uint64
		for !quit.Load() {
			for i := 0; i < 1<<16; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		_ = x
	}()
	return func() {
		quit.Store(true)
		<-done
	}
}

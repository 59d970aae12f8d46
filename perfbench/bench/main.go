// Command bench is the predintd benchmark generator. For one workload it
// generates the request list from a seed, starts fresh predintd
// processes, times set-up, drives a closed loop over one keep-alive
// connection for a fixed window, verifies every answer against the
// in-process facade, and prints the end-to-end metrics — or, with
// -trace 1, replays the requests through each layer's entry points and
// prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.py builds predintd and this program and runs it; see
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A window is cut into windowSlices equal time slices, and the
// end-to-end figures pool the keptSlices of them that lost the least CPU
// to the hypervisor: steal comes in bursts on a shared host, and a burst
// inside a window then does not move its figures.
const (
	windowSlices = 30
	keptSlices   = 10
)

// setupReps is how many times a run starts its fleet from scratch
// after one untimed priming start (the first start after generation
// runs measurably slower); setup_s is the median of the keptSetups of
// them that lost the least CPU to steal, and the last fleet serves the
// window.
const (
	setupReps  = 7
	keptSetups = 4
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 0, "timed window in seconds (required)")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	bin := flag.String("predintd", "", "path to the predintd binary")
	logDir := flag.String("logs", "", "directory for server logs and the span file")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *logDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed uint64, seconds float64, traced bool, bin, logDir string) error {
	if bin == "" || logDir == "" || seconds <= 0 {
		return fmt.Errorf("-predintd, -logs and a positive -seconds are required")
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	w, err := generate(name, seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %d timed ops, %d set-up ops, generated in %.2fs\n",
		name, seed, len(w.ops), len(w.setup), time.Since(t0).Seconds())
	printMachine()

	cl := newClient()
	var setups []float64
	var f *fleet
	var setupSteal []int64
	for i := 0; i <= setupReps; i++ {
		if f != nil {
			f.stop()
		}
		steal0 := stealTicks()
		start := time.Now()
		f, err = startFleet(bin, logDir, w.spec, cl)
		if err != nil {
			return err
		}
		for _, o := range w.setup {
			status, body, _, err := call(cl, "http://"+f.entry.addr, o)
			if err == nil {
				err = check(o, status, body)
			}
			if err != nil {
				f.stop()
				return fmt.Errorf("set-up request: %v", err)
			}
		}
		if i > 0 {
			setups = append(setups, time.Since(start).Seconds())
			setupSteal = append(setupSteal, stealTicks()-steal0)
		}
	}
	defer f.stop()

	runtime.GC()
	steal0 := stealTicks()
	before, err := f.snapshot(cl, true)
	if err != nil {
		return err
	}
	// The closed loop needs one thread; keeping the client on one P
	// stops its connection goroutines from waking a second CPU the
	// servers could use.
	procs := runtime.GOMAXPROCS(1)
	win := drive(cl, "http://"+f.entry.addr, w.ops, w.once, time.Duration(seconds*float64(time.Second)), windowSlices, f.ticks)
	runtime.GOMAXPROCS(procs)
	if f.tickErr != nil {
		return fmt.Errorf("reading server CPU time: %v", f.tickErr)
	}
	after, err := f.snapshot(cl, false)
	if err != nil {
		return err
	}
	steal := stealTicks() - steal0
	var rssKiB int64
	for _, p := range f.procs {
		k, err := p.peakRSSKiB()
		if err != nil {
			return err
		}
		rssKiB += k
	}

	vt := time.Now()
	v := verify(w)
	failed := win.failed
	shown := 0
	for o, err := range v.bad {
		if shown < 5 {
			fmt.Println("verification failed:", err)
			shown++
		}
		if o.id >= 0 {
			failed += win.sent[o]
		}
	}
	setupBad := 0
	for _, o := range w.setup {
		if v.bad[o] != nil {
			setupBad++
		}
	}
	for _, e := range win.errs {
		fmt.Println("request failed:", e)
	}
	fmt.Printf("verified %d distinct requests (%d results) in-process in %.2fs: %d wrong\n",
		len(win.sent), len(v.results), time.Since(vt).Seconds(), len(v.bad))

	ok := len(win.lat)
	var perProc []string
	for i, p := range f.procs {
		d := after.ticks[i] - before.ticks[i]
		perProc = append(perProc, fmt.Sprintf("%s %.3f", p.role, perReq(float64(d)*1000/clockTicks, ok)))
	}
	sl := win.slices(keptSlices)
	var kept []slice
	for _, s := range sl {
		if s.kept {
			kept = append(kept, s)
		}
	}
	rps, p50, p90, cpuMs := figures(kept)
	e2e := map[string]metric{
		"throughput_rps": {rps, "1/s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p90_ms": {p90, "ms"},
		"cpu_ms_per_req": {cpuMs, "ms"},
		"rss_mb":         {float64(rssKiB) / 1024, "MiB"},
		"setup_s":        {median(calmest(setups, setupSteal, keptSetups)), "s"},
	}
	keptOK := 0
	for _, s := range kept {
		keptOK += len(s.lat)
	}
	fmt.Printf("window %.2fs in %d slices: %d attempted, %d failed, %d ok; steal %d ticks; figures from the %d kept slices (%d requests)\n",
		win.wall.Seconds(), len(sl), win.attempted, failed, ok, steal, len(kept), keptOK)
	for i, x := range sl {
		r, q50, q90, c := figures([]slice{x})
		mark := ""
		if x.kept {
			mark = " kept"
		}
		fmt.Printf("slice %2d: steal %3d, %5d ok, %.1f rps, p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/req%s\n",
			i+1, x.steal, len(x.lat), r, q50, q90, c, mark)
	}
	fmt.Printf("cpu ms/req by process: %s\n", strings.Join(perProc, ", "))
	fmt.Printf("setup_s runs: %s (steal ticks %v; median of the %d calmest)\n", fmtFloats(setups, "%.4f"), setupSteal, keptSetups)
	printDeltas(f, before, after)
	printProperties(w, win, v)
	printMetrics("end-to-end", e2e)

	res := result{
		Correct:   failed == 0 && setupBad == 0 && len(v.bad) == 0,
		Attempted: win.attempted,
		Failed:    failed,
		Metrics:   e2e,
	}
	if traced {
		layers, err := traceRun(w, f, cl, before, after, win, v, e2e, logDir)
		if err != nil {
			return err
		}
		printMetrics("per-layer", layers)
		res.Metrics = layers
	}
	f.stop()
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// calmest returns the keep values whose steal was lowest, ties going to
// the earlier one.
func calmest(vals []float64, steal []int64, keep int) []float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	var out []float64
	for _, i := range idx[:min(keep, len(idx))] {
		out = append(out, vals[i])
	}
	return out
}

func perReq(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func fmtFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printMachine reports the facts that explain run-to-run noise. The
// reference loop is a fixed CPU-bound loop, timed as the fastest of
// five: the host's clock speed changes with its load, which steal ticks
// do not show, and every time metric moves with it.
func printMachine() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				model = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	fmt.Printf("machine: nproc %d, cpu %q, reference loop %.3f ms\n", runtime.NumCPU(), model, referenceMs())
}

var referenceSink uint64

func referenceMs() float64 {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(r)
		for i := 0; i < 10_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		referenceSink += x
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / 1e6
}

// printDeltas prints each process's nonzero /metrics counter deltas
// over the window (histogram quantiles are levels, shown as read).
func printDeltas(f *fleet, before, after snapshot) {
	for i, p := range f.procs {
		var parts []string
		names := make([]string, 0, len(after.metrics[i]))
		for n := range after.metrics[i] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := after.metrics[i][n] - before.metrics[i][n]
			if isLevel(n) {
				d = after.metrics[i][n]
			}
			if d != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", n, d))
			}
		}
		fmt.Printf("/metrics %s: %s\n", p.role, strings.Join(parts, " "))
	}
}

// isLevel reports metrics that are levels rather than counters:
// gauges and histogram quantiles.
func isLevel(name string) bool {
	for _, s := range []string{"_us", ".queue_depth", ".inflight", ".workers_active"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// printProperties reports the generated input's properties, so a
// later change whose gain depends on one of them can cite it.
func printProperties(w *workload, win window, v verdict) {
	seen := map[string]bool{}
	repeats := 0
	for _, o := range w.ops {
		k := o.req.planKey()
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	passes := float64(win.attempted) / float64(len(w.ops))
	fmt.Printf("input: repeat-key share %.3f over the %d-op list (window covered it %.2f times)\n",
		float64(repeats)/float64(len(w.ops)), len(w.ops), passes)
	var fp []float64
	rungs := map[string]int{}
	for _, r := range v.results {
		fp = append(fp, r.FailProb)
		rungs[r.Estimator]++
	}
	q := quartiles(fp)
	fmt.Printf("input: fail_prob quartiles %.4g %.4g %.4g\n", q[0], q[1], q[2])
	var mix []string
	for _, k := range []string{"mc", "qmc", "isle", "ais", "wcd"} {
		if rungs[k] > 0 {
			mix = append(mix, fmt.Sprintf("%s %.3f", k, float64(rungs[k])/float64(len(v.results))))
		}
	}
	fmt.Printf("input: rung mix %s\n", strings.Join(mix, ", "))
	if len(v.sizing) > 0 {
		n := 0
		for _, r := range v.sizing {
			if r.Resized {
				n++
			}
		}
		fmt.Printf("input: resized share %.3f of %d sizing requests\n", float64(n)/float64(len(v.sizing)), len(v.sizing))
	}
	if len(v.partialBytes) > 0 {
		q := quartiles(v.partialBytes)
		fmt.Printf("input: partial_bytes quartiles %.0f %.0f %.0f over %d shards\n", q[0], q[1], q[2], len(v.partialBytes))
	}
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the production layers in-process through their public functions, in
// the order flocd uses them: capture or datagram decode (wire), path
// resolution and interning, the sharded engine (dataplane, core), the
// event ledger (ledger), and the multi-router control plane (cluster,
// defense). Inputs are generated in memory from the seed before timing
// starts; no traffic crosses a socket. Every load is closed loop: one
// producer goroutine enqueues with BlockOnFull backpressure, as
// flocd -replay does.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload capture_flood --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 1
//
// A run repeats episodes until --seconds have passed. An episode builds
// fresh engines (timed as set-up), ingests the whole input (the timed
// window, from the first ingest call to the last verdict), and then
// checks the outputs. --trace 0 prints the end-to-end metrics; --trace 1
// alternates untraced and traced episodes and prints the per-layer
// metrics, the layer self times and the tracing overhead. The last line
// of standard output is one JSON object; the exit code is nonzero when
// any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything the benchmark writes (ledgers, span files),
// relative to the repository root it runs from.
const workDir = ".bench_build/perfbench"

// unattributedTolerance is the largest share of a traced episode's wall
// time that may fall outside every layer span; above it the layer self
// times no longer account for the end-to-end time and the run fails.
const unattributedTolerance = 0.05

// setupRepeats is how many extra set-ups a run makes before its episodes,
// so that setup_s is a median over enough samples to be steady.
const setupRepeats = 40

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\": "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "how long to repeat episodes")
	trace := fs.Int("trace", 0, "1 = per-layer run (alternating traced and untraced episodes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// GOMAXPROCS never exceeds the CPUs the process may use, and is at
	// most 2 so that runs on larger machines stay comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := lookup(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			*name, strings.Join(workloadNames(), ", "))
		return 2
	}

	sum := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(todo) == 1 {
			sum = res
			break
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for k, v := range res.Metrics {
			sum.Metrics[w.name+"."+k] = v
		}
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !sum.Correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one episode's measurements, by metric name.
type sample map[string]float64

// episodeResult is what an episode hands back besides its sample.
type episodeResult struct {
	s         sample
	attempted int64
	failed    int64
	problems  []string
	spans     []span
	keep      any // the episode's engines, kept alive for retained_heap_mb
}

// runWorkload generates w's input, runs episodes for the given time, and
// prints the report.
func runWorkload(w *workload, seed uint64, seconds float64, traced bool) (result, error) {
	//floclint:allow sim-time the benchmark measures wall-clock time
	genStart := time.Now()
	in, err := w.prepare(seed)
	if err != nil {
		return result{}, err
	}
	//floclint:allow sim-time the benchmark measures wall-clock time
	genS := time.Since(genStart).Seconds()
	fmt.Printf("# workload %s seed %d: %d packets (%d legit, %d flood, %d churn), %d paths, %.1f s of capture time, %d shard(s), GOMAXPROCS %d; input generated and checked in %.2f s\n",
		w.name, seed, len(in.tr.pkts), in.tr.offered[classLegit], in.tr.offered[classFlood],
		in.tr.offered[classChurn], len(in.tr.paths), in.tr.end, w.shards, runtime.GOMAXPROCS(0), genS)

	// Every set-up starts from the same state: garbage collected and free
	// memory returned to the OS, so each one pays for the memory it maps.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		s, err := w.setupOnly()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}

	var (
		samples   []sample // untraced episodes
		tsamples  []sample // traced episodes
		spans     []span   // the last traced episode's
		problems  []string
		attempted int64
		failed    int64
		last      *episodeResult
	)
	//floclint:allow sim-time the benchmark measures wall-clock time
	start := time.Now()
	for ep := 0; ; ep++ {
		tracedEp := traced && ep%2 == 1
		debug.FreeOSMemory()
		r, err := w.episode(in, tracedEp)
		if err != nil {
			return result{}, err
		}
		attempted += r.attempted
		failed += r.failed
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("episode %d: %s", ep, p))
		}
		setups = append(setups, r.s["setup_s"])
		if tracedEp {
			tsamples = append(tsamples, r.s)
			spans = r.spans
		} else {
			samples = append(samples, r.s)
		}
		last = r
		fmt.Printf("# episode %d (traced %v): %.4f Mpps over %.3f s, legit_share %.6f, attack_admit_frac %.6f\n",
			ep, tracedEp, r.s["throughput_mpps"], r.s["wall_s"], r.s["legit_share"], r.s["attack_admit_frac"])
		//floclint:allow sim-time the benchmark measures wall-clock time
		done := time.Since(start).Seconds() >= seconds
		if done && (!traced || len(tsamples) > 0) {
			break
		}
	}

	if traced {
		if err := writeSpans(filepath.Join(workDir, "spans-"+w.name+".tsv"), spans); err != nil {
			return result{}, err
		}
		spans, last.spans = nil, nil
	}

	// Retained heap: release the input and the spans, collect, and
	// measure what the last episode's engines still hold.
	in.release()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	retained := float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(last.keep)

	// End-to-end figures come from untraced episodes; in a traced run the
	// per-layer figures come from the traced ones.
	vals := map[string][]float64{}
	keys := unionKeys(samples)
	for k := range unionKeys(tsamples) {
		keys[k] = true
	}
	for k := range keys {
		set := samples
		if traced && !isEndToEnd(k) {
			set = tsamples
		}
		if v := column(set, k); len(v) > 0 {
			vals[k] = v
		}
	}
	vals["setup_s"] = setups
	vals["retained_heap_mb"] = []float64{retained}
	vals["op_fail_frac"] = []float64{float64(failed) / float64(attempted)}
	if traced {
		tr := median(column(tsamples, "throughput_mpps"))
		vals["trace.traced_mpps"] = []float64{tr}
		vals["trace.overhead_frac"] = []float64{1 - tr/median(column(samples, "throughput_mpps"))}
		if u := median(vals["trace.unattributed_frac"]); u > unattributedTolerance {
			problems = append(problems, fmt.Sprintf("traced layer self times leave %.1f%% of wall time unattributed (tolerance %.0f%%)",
				100*u, 100*unattributedTolerance))
		}
	}

	printReport(w, vals, len(samples), len(tsamples))
	for _, p := range problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", failed, attempted))
		fmt.Printf("# CHECK FAILED: %d of %d operations failed\n", failed, attempted)
	}

	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metricTable {
		if m.endToEnd == traced {
			continue
		}
		v := 0.0 // a layer the workload does not exercise
		if vs, ok := vals[m.name]; ok {
			v = median(vs)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

func isEndToEnd(name string) bool {
	for _, m := range metricTable {
		if m.name == name {
			return m.endToEnd
		}
	}
	return false
}

func unionKeys(set []sample) map[string]bool {
	keys := map[string]bool{}
	for _, s := range set {
		for k := range s {
			keys[k] = true
		}
	}
	return keys
}

func column(set []sample, k string) []float64 {
	var vals []float64
	for _, s := range set {
		if v, ok := s[k]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printReport prints every metric the run measured, by name, with its
// unit, its median, range and sample count (episodes, set-ups or runs).
// On legit_share and attack_admit_frac the range over the untraced
// episodes, which all replay the same input, is the batch-timing jitter.
func printReport(w *workload, vals map[string][]float64, untraced, traced int) {
	fmt.Printf("# %s: %d untraced and %d traced episodes\n", w.name, untraced, traced)
	fmt.Printf("# %-34s %14s %14s %14s %-9s %s\n", "metric", "median", "min", "max", "unit", "n")
	line := func(name, unit string) {
		v := append([]float64(nil), vals[name]...)
		sort.Float64s(v)
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %-9s n=%d\n", name, median(v), v[0], v[len(v)-1], unit, len(v))
	}
	seen := map[string]bool{}
	for _, m := range metricTable {
		seen[m.name] = true
		if _, ok := vals[m.name]; ok {
			line(m.name, m.unit)
		}
	}
	var extra []string
	for k := range vals {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		line(k, unitOf(k))
	}
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	}
	return "count"
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

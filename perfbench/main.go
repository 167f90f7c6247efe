// Command perfbench is greenviz's end-to-end benchmark. It runs one
// named workload at the shipped configuration for a fixed time, checks
// every output, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run alternates untraced and traced
// passes; the metrics are the per-layer ones from the traced passes,
// and the spans of the first traced pass are written as Chrome
// trace-event JSON (loadable in Perfetto) beside a self-time table.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
//
// Results, traces and the daemon's scratch stores go under .bench_build/.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// repository root.
const outDir = ".bench_build"

// setupSamples is how many timed setup batches setup_s takes the
// median of; minSetupBatch is the least time one batch must take.
const (
	setupSamples  = 21
	minSetupBatch = 10 * time.Millisecond
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// prepare registers the run's golden and pinned output checks.
	prepare func(s *runState) error
	// setup builds a fresh system under test, up to its first timed
	// operation. A non-nil tr makes the pass traced.
	setup func(s *runState, tr *tracer) (sut, error)
}

// sut is one built system under test.
type sut interface {
	// run drives the timed phase, recording every operation on the
	// run state. An error aborts the benchmark.
	run() error
	close()
}

var workloads = []workload{paperFigs, fioTable3, insituFull, daemonMixed}

// runState is the state one benchmark run shares across its passes.
type runState struct {
	seed uint64

	mu      sync.Mutex
	ops     tally
	errs    []string
	checks  map[string]func([]byte) error // golden or pinned check per op key
	first   map[string][]byte             // first output per op key; later ones must equal it
	samples map[string][]float64          // per-workload end-to-end samples from untraced passes
}

func newRunState(seed uint64) *runState {
	return &runState{seed: seed, checks: map[string]func([]byte) error{},
		first: map[string][]byte{}, samples: map[string][]float64{}}
}

// op records one operation's output under key. It fails on err, on a
// golden or pinned mismatch, and on any difference from the first
// output recorded under the same key: across passes, between traced
// and untraced passes, and between a daemon's cold and cached replies.
func (s *runState) op(key string, out []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.verifyLocked(key, out)
	}
	s.ops.record(err)
	if err != nil && len(s.errs) < 10 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *runState) verifyLocked(key string, out []byte) error {
	if check := s.checks[key]; check != nil {
		if err := check(out); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	ref, seen := s.first[key]
	if !seen {
		s.first[key] = out
		return nil
	}
	if !bytes.Equal(ref, out) {
		return fmt.Errorf("%s: output differs from its first run (%d vs %d bytes)", key, len(out), len(ref))
	}
	return nil
}

// sample records one end-to-end sample.
func (s *runState) sample(name string, v float64) {
	s.mu.Lock()
	s.samples[name] = append(s.samples[name], v)
	s.mu.Unlock()
}

// passStat is one measured pass.
type passStat struct {
	wall  time.Duration // timed phase
	alloc uint64        // heap bytes allocated in the timed phase
	tr    *tracer
}

// onePass sets up, runs and tears down one pass.
func onePass(w workload, s *runState, tr *tracer) (passStat, error) {
	x, err := w.setup(s, tr)
	if err != nil {
		return passStat{}, fmt.Errorf("setup: %w", err)
	}
	// Start every pass from a collected heap with empty sync.Pools (the
	// second cycle drops the pools' victim caches), so passes allocate
	// alike however the previous one left the heap.
	runtime.GC()
	runtime.GC()
	gc := readGC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err = x.run()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	gcAfter := readGC()
	x.close()
	if err != nil {
		return passStat{}, err
	}
	tr.add("gc.cpu_s", gcAfter[0]-gc[0])
	tr.add("gc.cycles", gcAfter[1]-gc[1])
	return passStat{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, tr: tr}, nil
}

// readGC returns the process's GC CPU seconds and completed cycles.
func readGC() [2]float64 {
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(ms)
	var out [2]float64
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		}
	}
	return out
}

// measure runs passes while one more, taking as long as the last, would
// end nearer budget than stopping now: at least one, and with traced at
// least one untraced and one traced, alternating. A run thus measures
// budget to within half a pass however long a pass takes on the host.
func measure(w workload, s *runState, budget time.Duration, traced bool) (plain, tracedPasses []passStat, err error) {
	start := time.Now()
	for i := 0; ; i++ {
		passStart := time.Now()
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		p, err := onePass(w, s, tr)
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			tracedPasses = append(tracedPasses, p)
		} else {
			plain = append(plain, p)
		}
		if time.Since(start)+time.Since(passStart)/2 >= budget && (!traced || len(tracedPasses) > 0) {
			return plain, tracedPasses, nil
		}
	}
}

// setupSeconds is the median per-setup time over setupSamples batches,
// each batch sized so its setups take at least minSetupBatch.
func setupSeconds(w workload, s *runState) (float64, error) {
	batch := 1
	for {
		d, err := timeSetups(w, s, batch)
		if err != nil {
			return 0, err
		}
		if d >= minSetupBatch || batch >= 1<<16 {
			break
		}
		batch *= 2
	}
	xs := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		d, err := timeSetups(w, s, batch)
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds()/float64(batch))
	}
	return median(xs), nil
}

// timeSetups sums the time of n setups; each is torn down, untimed,
// before the next.
func timeSetups(w workload, s *runState, n int) (time.Duration, error) {
	runtime.GC()
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		x, err := w.setup(s, nil)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		x.close()
	}
	return total, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := bench(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// bench runs one workload and prints its report, ending with the result
// line.
func bench(w workload, seed uint64, budget time.Duration, traced bool, stdout io.Writer) error {
	s := newRunState(seed)
	if err := w.prepare(s); err != nil {
		return err
	}
	host := hostFacts()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%.0f trace=%t\n", w.name, seed, budget.Seconds(), traced)
	fmt.Fprintf(stdout, "host: %s\n", formatHost(host))

	// Time setup first, while every run's process is in the same state.
	setup, err := setupSeconds(w, s)
	if err != nil {
		return err
	}
	plain, tracedPasses, err := measure(w, s, budget, traced)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}

	var walls, allocs []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
	}
	all := map[string]metricValue{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {setup, "s"},
		"peak_rss_mib": {rss, "MiB"},
		"alloc_mib":    {median(allocs), "MiB"},
		"fail_ratio":   {s.ops.ratio(), "ratio"},
	}
	for name, mv := range extraMetrics(s, stdout) {
		all[name] = mv
	}
	fmt.Fprintf(stdout, "passes: %d untraced, %d traced; untraced wall_s/alloc_mib:", len(plain), len(tracedPasses))
	for i := range walls {
		fmt.Fprintf(stdout, " %.3f/%.1f", walls[i], allocs[i])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed\n", s.ops.Attempted, s.ops.Failed)
	for _, e := range s.errs {
		fmt.Fprintf(stdout, "FAIL %s\n", e)
	}

	out := result{Correct: s.ops.Failed == 0, Attempted: s.ops.Attempted, Failed: s.ops.Failed, Metrics: map[string]metricValue{}}
	if traced {
		layers, err := traceReport(w, seed, host, plain, tracedPasses, stdout)
		if err != nil {
			return err
		}
		for name, mv := range layers {
			all[name] = mv
		}
		for _, d := range layerDefs {
			out.Metrics[d.Name] = layers[d.Name]
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = all[d.Name]
		}
	}
	printMetrics(stdout, all)
	if err := writeResult(w, seed, traced, host, out, all); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// traceReport computes the per-layer metrics (median over traced
// passes), writes the first traced pass as Chrome trace JSON, and
// prints its self-time table.
func traceReport(w workload, seed uint64, host map[string]string, plain, traced []passStat, stdout io.Writer) (map[string]metricValue, error) {
	unit := map[string]string{}
	for _, d := range layerDefs {
		unit[d.Name] = d.Unit
	}
	vals := map[string][]float64{}
	var tracedWalls, plainWalls []float64
	for _, p := range traced {
		for name, v := range layerValues(p.tr) {
			vals[name] = append(vals[name], v)
		}
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	out := map[string]metricValue{}
	for name, xs := range vals {
		out[name] = metricValue{median(xs), unit[name]}
	}
	out["trace.overhead_s"] = metricValue{median(tracedWalls) - median(plainWalls), "s"}

	first := traced[0]
	spans := first.tr.closed()
	path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{"workload": w.name, "seed": fmt.Sprint(seed)}
	for k, v := range host {
		meta[k] = v
	}
	if err := writeChrome(f, spans, meta); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s (first traced pass, wall %.3f s)\n", len(spans), path, first.wall.Seconds())
	printLayerTable(stdout, layerTable(spans), first.wall)
	return out, nil
}

// printMetrics lists every metric; a per-layer one also says which
// end-to-end metric it should move.
func printMetrics(w io.Writer, all map[string]metricValue) {
	moves := map[string]string{}
	for _, d := range layerDefs {
		moves[d.Name] = d.Moves
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-36s %16.6f %-5s", name, all[name].Value, all[name].Unit)
		if m := moves[name]; m != "" {
			fmt.Fprintf(w, "  moves: %s", m)
		}
		fmt.Fprintln(w)
	}
}

// writeResult stamps the run's metrics with host facts into
// .bench_build/results.
func writeResult(w workload, seed uint64, traced bool, host map[string]string, out result, all map[string]metricValue) error {
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%t.json", w.name, seed, traced))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name, "why": w.why, "seed": seed, "trace": traced, "host": host,
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed,
		"metrics": all,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

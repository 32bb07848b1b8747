// Command perfbench is the repository's end-to-end benchmark. It drives
// two closed-loop workloads through the entry points users call —
// campaign.Runner.Run and the vsd HTTP API — checks every job's
// simulated results against a digest, and prints one JSON result line.
// A traced run (--trace 1) times each layer from the benchmark's side of
// its public calls and reports per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"vsresil/internal/experiments"
	"vsresil/internal/virat"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. The README says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for its metrics and names the reason in
// the trace summary.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"virat.generate_s", "s"},
		{"stitch.detect_s", "s"},
		{"stitch.align_s", "s"},
		{"stitch.composite_s", "s"},
		{"vs.run_s", "s"},
	}
	for _, r := range stageRegions() {
		defs = append(defs, metricDef{"stage." + r + ".wall_s", "s"}, metricDef{"stage." + r + ".ops", "count"})
	}
	defs = append(defs,
		metricDef{"fault.golden_capture_s", "s"},
		metricDef{"fault.trial_us.gpr", "us"},
		metricDef{"fault.trial_us.fpr", "us"},
		metricDef{"fault.scratch_frac", "ratio"},
		metricDef{"fault.batched_frac", "ratio"},
		metricDef{"fault.restores_saved", "count"},
		metricDef{"fault.early_mask_frac", "ratio"},
		metricDef{"fault.converged_frac", "ratio"},
		metricDef{"fault.outcome.mask_frac", "ratio"},
		metricDef{"fault.outcome.crash_frac", "ratio"},
		metricDef{"fault.outcome.sdc_frac", "ratio"},
		metricDef{"fault.outcome.hang_frac", "ratio"},
		metricDef{"fault.session.prep_hits", "count"},
		metricDef{"fault.session.prep_misses", "count"},
		metricDef{"fault.session.workers_reused", "count"},
		metricDef{"fault.alloc_bytes_per_trial", "B"},
		metricDef{"fault.gc_per_1k_trials", "count"},
		metricDef{"plan.next_s", "s"},
		metricDef{"plan.observe_s", "s"},
		metricDef{"plan.rounds", "count"},
		metricDef{"plan.trials_to_precision", "count"},
		metricDef{"campaign.run_s", "s"},
		metricDef{"campaign.open_session_s", "s"},
		metricDef{"campaign.run_plans_s", "s"},
		metricDef{"campaign.window_trials", "count"},
	)
	for _, t := range []string{"summarize", "campaign"} {
		defs = append(defs,
			metricDef{"service.submit_s." + t, "s"},
			metricDef{"service.queue_wait_s." + t, "s"},
			metricDef{"service.run_s." + t, "s"},
			metricDef{"service.client_overhead_s." + t, "s"},
			metricDef{"service.polls_per_job." + t, "count"},
			metricDef{"service.result_bytes." + t, "B"},
			metricDef{"service.journal_bytes_per_job." + t, "B"},
			metricDef{"service.latency_p50_s." + t, "s"},
			metricDef{"service.latency_tail_s." + t, "s"},
		)
	}
	return append(defs,
		metricDef{"bench.traced_trials_per_s", "1/s"},
		metricDef{"bench.traced_job_p50_s", "s"},
	)
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	commit   string
}

// outDir holds traces and the daemon's journal, under the build
// directory run.sh keeps every artefact in.
var outDir = filepath.Join(".bench_build", "perfbench")

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	// problems lists every failed check, one line each.
	problems []string
	metrics  map[string]float64
	// absent names the per-layer metrics a workload does not
	// exercise, with the reason.
	absent map[string]string
	// stamp adds workload-specific context to the result stamp.
	stamp map[string]any
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), absent: make(map[string]string), stamp: make(map[string]any)}
}

// fail records a failed job or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// verify records one attempted job. err marks a job that produced no
// valid result: it fails and its work is not counted (false). A digest
// that disagrees with the committed one fails the job, but its work
// still counts toward throughput (true): the run did it.
func (r *report) verify(chk *checker, label string, digest uint64, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", label, err)
		return false
	}
	if err := chk.check(label, digest); err != nil {
		r.fail("%v", err)
	}
	return true
}

// markAbsent reports 0 for each named per-layer metric, with reason.
func (r *report) markAbsent(reason string, names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
		r.absent[n] = reason
	}
}

type workloadFunc func(opts options, tr *tracer) (*report, error)

var workloads = map[string]workloadFunc{
	"campaign": runCampaignWorkload,
	"daemon":   runDaemonWorkload,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: campaign or daemon")
	flag.Uint64Var(&opts.seed, "seed", 1, "workload seed; orders the job list")
	flag.IntVar(&opts.seconds, "seconds", 40, "nominal measured seconds; fixes the number of whole job-list cycles")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opts.commit, "commit", "unknown", "identity of the measured code, for the result stamp")
	flag.Parse()
	opts.traced = trace == 1
	if err := run(opts, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opts options, trace int) error {
	wl, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want campaign or daemon)", opts.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opts.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", opts.seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Busy threads stay at or below the core count: every workload
	// keeps two trial or job executors busy.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	rep, err := wl(opts, tr)
	if err != nil {
		return err
	}

	defs := endToEnd
	if opts.traced {
		defs = perLayer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s: %s", opts.workload, d.Name, rep.absent[d.Name])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s reported %s = %v", opts.workload, d.Name, v)
		}
		if !opts.traced && v <= 0 {
			return fmt.Errorf("workload %s reported non-positive %s = %v", opts.workload, d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return errors.New("no job attempted")
	}

	// The stamp says what produced the numbers, so that runs from
	// different machines, toolchains or trees are never compared.
	stamp := map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"traced":     opts.traced,
		"nproc":      procs,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     opts.commit,
	}
	for k, v := range rep.stamp {
		stamp[k] = v
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	for _, n := range sortedKeys(rep.absent) {
		fmt.Fprintf(os.Stderr, "absent: %s (%s)\n", n, rep.absent[n])
	}
	if len(rep.absent) > 0 {
		stamp["absent"] = rep.absent
	}
	if opts.traced {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", opts.workload, opts.seed))
		if err := tr.write(path, map[string]any{"stamp": stamp}); err != nil {
			return err
		}
		stamp["trace_file"] = path
	}
	printSummary(out)
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary writes the metrics as a table on standard error.
func printSummary(out result) {
	names := sortedKeys(out.Metrics)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
}

// preset is the experiments "small" scale every workload runs at.
func preset() virat.Preset { return experiments.DefaultOptions().Preset }

// appSeed fixes the VS variants' stochastic choices in the campaign
// workload and the adaptive job, as the experiments harness does at its
// default seed; the job seeds (the fault sites) come from the job lists.
const appSeed = 1

// listSeed fixes the job seeds of every job list. Job cost and peak
// heap depend strongly on the job seed (an adaptive campaign runs 5 or
// 6 rounds, and one corrupted trial can allocate tens of MB), so a
// workload seed that chose job seeds would make run-to-run spread
// measure the input instead of the machine. The workload seed orders
// the list instead; every run executes the same multiset of jobs.
const listSeed = 1

// jobSeed derives the seed of job i of a job-list stream (splitmix64
// finalizer, kept below 2^32 so it survives any JSON round trip).
func jobSeed(stream string, i int) uint64 {
	return splitmix(listSeed*0x9e3779b97f4a7c15+uint64(i)+1, stream) >> 32
}

func splitmix(x uint64, salt string) uint64 {
	for _, c := range salt {
		x = x*31 + uint64(c)
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// schedule lists the job indices a run executes, in order: cycles
// whole passes over a list of n jobs, each pass in the order the
// workload seed gives.
func schedule(n, cycles int, seed uint64) []int {
	order := runOrder(n, seed)
	out := make([]int, 0, n*cycles)
	for c := 0; c < cycles; c++ {
		out = append(out, order...)
	}
	return out
}

// runOrder is the order, derived from the workload seed, in which a
// run executes a job list of n jobs.
func runOrder(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = splitmix(x+0x9e3779b97f4a7c15, "order")
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// cyclesFor converts the nominal run length into a whole number of
// job-list cycles from a fixed per-cycle cost, so every run at the same
// --seconds does identical work however fast the machine is.
func cyclesFor(seconds int, nominalCycle time.Duration) int {
	c := int(math.Round(float64(seconds) / nominalCycle.Seconds()))
	return max(c, 1)
}

// repeatSetup runs setup reps times after a GC each, tears down every
// instance but the last, and returns the last. It reports the median
// set-up time as setup_s and every time in the stamp. Only the last
// set-up, the one the jobs use, gets tr.
//
// The machine changes speed every second or two, so set-ups run back to
// back for about a second all land in one state and their median jumps
// between two modes from run to run. Callers choose reps so that the
// set-ups span several seconds.
func repeatSetup[T any](rep *report, tr *tracer, reps int, setup func(tr *tracer) (T, error), teardown func(T)) (T, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		var t *tracer
		if i == reps-1 {
			t = tr
		}
		v, err := setup(t)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	rep.metrics["setup_s"] = median(times)
	rep.stamp["setup_runs_s"] = times
	return last, nil
}

// heapWindow is the span of one heap-peak window.
const heapWindow = 500 * time.Millisecond

// heapSampler samples the live heap (bytes marked live by the last GC)
// every 5 ms while a measurement runs and keeps the peak of each
// window. Whether a GC completes while a rare large allocation is live
// is a matter of timing, so the run-wide maximum jumps between runs of
// identical work; the sampler reports the highest window peak with at
// least minBeyond windows above it (the job_tail_s rule), a peak a
// transient allocation raises once it recurs in more than minBeyond
// windows.
type heapSampler struct {
	stop, done chan struct{}
	peaks      []uint64
}

const heapLiveMetric = "/gc/heap/live:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			peak = max(peak, readMetric(heapLiveMetric))
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, peak)
				return
			case now := <-tick.C:
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, peak)
					peak = 0
					windowEnd = now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and reports heap_peak_mb (in 2^20 bytes) and
// which window percentile it is. A run too short for the tail rule
// reports its highest window.
func (h *heapSampler) finish(rep *report) {
	close(h.stop)
	<-h.done
	xs := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		xs[i] = float64(p) / (1 << 20)
	}
	peak, pct, ok := tailPercentile(xs)
	if !ok {
		peak, pct = slices.Max(xs), 100
	}
	rep.metrics["heap_peak_mb"] = peak
	rep.stamp["heap_peak"] = fmt.Sprintf("p%.1f of %d windows of %v", pct, len(xs), heapWindow)
}

// allocMeter measures allocation and GC activity around calls.
type allocMeter struct {
	bytes, gcs uint64
}

func allocSnapshot() (bytes, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// around adds the allocation and GC deltas of f to the meter; a nil
// meter just runs f.
func (a *allocMeter) around(f func()) {
	if a == nil {
		f()
		return
	}
	b0, g0 := allocSnapshot()
	f()
	b1, g1 := allocSnapshot()
	a.bytes += b1 - b0
	a.gcs += g1 - g0
}

// latencySummary fills job_p50_s and job_tail_s from per-job seconds.
func latencySummary(rep *report, xs []float64) {
	rep.metrics["job_p50_s"] = median(xs)
	tail, pct, ok := tailPercentile(xs)
	if ok {
		rep.metrics["job_tail_s"] = tail
	} else {
		rep.absent["job_tail_s"] = tailStamp(pct, len(xs), ok) + "; run longer"
	}
	rep.stamp["job_tail"] = tailStamp(pct, len(xs), ok)
}

// tailStamp says which percentile a tail metric is, over how many
// samples.
func tailStamp(pct float64, n int, ok bool) string {
	if !ok {
		return fmt.Sprintf("omitted: %d samples, need >= %d", n, minBeyond+1)
	}
	return fmt.Sprintf("p%.1f of %d samples", pct, n)
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
)

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending: the rule must sort
	}
	v, pct, ok := tailPercentile(xs)
	if !ok {
		t.Fatal("48 samples: tail omitted")
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Errorf("%d samples beyond the tail value %v, want %d", beyond, v, minBeyond)
	}
	if want := 100 * 38.0 / 48; pct != want {
		t.Errorf("tail percentile %v, want %v", pct, want)
	}

	if _, _, ok := tailPercentile(xs[:minBeyond]); ok {
		t.Errorf("%d samples: tail reported, want omitted", minBeyond)
	}
	if v, pct, ok := tailPercentile(xs[:minBeyond+1]); !ok || v != float64(len(xs)-minBeyond) || pct != 100/float64(minBeyond+1) {
		t.Errorf("%d samples: tail %v at p%v ok=%v, want the minimum", minBeyond+1, v, pct, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFlippedOutcomeFailsDigest(t *testing.T) {
	counts := []int{380, 15, 5, 0}
	chk := &checker{
		committed: map[string]string{"job": fmt.Sprintf("%#x", countsDigest(counts))},
		first:     map[string]uint64{},
	}
	flipped := []int{379, 16, 5, 0}

	rep := newReport()
	if !rep.verify(chk, "job", countsDigest(flipped), nil) {
		t.Error("a wrong digest must still count the job's work")
	}
	if rep.attempted != 1 || rep.failed != 1 {
		t.Fatalf("flipped outcome: attempted %d failed %d, want 1 and 1", rep.attempted, rep.failed)
	}

	// Every later cycle of the job is compared with the committed
	// digest too: a systematic change fails each run that shows it.
	rep = newReport()
	for range 3 {
		rep.verify(chk, "job", countsDigest(flipped), nil)
	}
	if rep.attempted != 3 || rep.failed != 3 {
		t.Errorf("three more flipped runs: attempted %d failed %d, want 3 and 3", rep.attempted, rep.failed)
	}

	// A correct first run, then a flipped cycle: one failure.
	chk = &checker{committed: chk.committed, first: map[string]uint64{}}
	rep = newReport()
	rep.verify(chk, "job", countsDigest(counts), nil)
	rep.verify(chk, "job", countsDigest(flipped), nil)
	rep.verify(chk, "job", countsDigest(counts), nil)
	if rep.failed != 1 {
		t.Errorf("a later cycle's flipped outcome: failed %d, want 1", rep.failed)
	}

	// A job whose result breaks an invariant is failed and its work
	// not counted.
	res := &campaign.Result{Fault: &fault.Result{Completed: 400}, Executed: 400}
	res.Fault.Counts[fault.OutcomeMask] = 395
	rep = newReport()
	if rep.verify(chk, "job", 0, checkCampaignResult(res, 400)) || rep.failed != 1 {
		t.Error("counts summing to 395 of 400: verify accepted the job")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100 * ms},
		// Overlapping children cover [10,50]; the third is clipped to
		// the parent at 100.
		{ID: 1, Parent: 0, Name: "call", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "call", Start: 20 * ms, End: 50 * ms},
		{ID: 3, Parent: 0, Name: "tail", Start: 90 * ms, End: 120 * ms},
		{ID: 4, Parent: 2, Name: "inner", Start: 25 * ms, End: 35 * ms},
		// Unclosed spans are ignored.
		{ID: 5, Parent: 0, Name: "open", Start: 60 * ms, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"job":   {Self: 50 * ms, Calls: 1},
		"call":  {Self: 20*ms + 20*ms, Calls: 2},
		"tail":  {Self: 30 * ms, Calls: 1},
		"inner": {Self: 10 * ms, Calls: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %v over %d calls, want %v over %d", name, got[name].Self, got[name].Calls, w.Self, w.Calls)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	if m := got["call"].meanSeconds(); m != 0.02 {
		t.Errorf("call mean self time %v s, want 0.02", m)
	}
}

func TestSpeedProbeSlowdown(t *testing.T) {
	var p speedProbe
	if got := p.slowdown(); got != 1 {
		t.Errorf("no samples: slowdown %v, want 1", got)
	}
	// A run that spent a quarter of its samples at half speed.
	p.times = []float64{refProbe, 2 * refProbe, refProbe, refProbe}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Abs(b) }
	if got := p.slowdown(); !near(got, 1.25) {
		t.Errorf("slowdown %v, want 1.25", got)
	}
	rep := newReport()
	rep.metrics["trials_per_s"] = 800
	rep.metrics["job_p50_s"] = 0.5
	rep.metrics["heap_peak_mb"] = 6
	scaleMetrics(rep, &p)
	if !near(rep.metrics["trials_per_s"], 1000) || !near(rep.metrics["job_p50_s"], 0.4) || rep.metrics["heap_peak_mb"] != 6 {
		t.Errorf("scaled metrics %v, want trials_per_s 1000, job_p50_s 0.4, heap_peak_mb 6", rep.metrics)
	}
	p.times = nil
	p.sample()
	if len(p.times) != 1 || p.times[0] <= 0 {
		t.Errorf("sample recorded %v", p.times)
	}
}

func TestScheduleIsWholeCycles(t *testing.T) {
	const n = 16
	for _, seconds := range []int{1, 7, 30, 61} {
		cycles := cyclesFor(seconds, 10*time.Second)
		var ref []int
		for _, seed := range []uint64{1, 2, 99} {
			sched := schedule(n, cycles, seed)
			if len(sched) != n*cycles {
				t.Fatalf("%ds seed %d: %d jobs, want %d", seconds, seed, len(sched), n*cycles)
			}
			// Every cycle is the whole list, in the seed's order.
			for c := 0; c < cycles; c++ {
				cyc := sched[c*n : (c+1)*n]
				if !slices.Equal(cyc, sched[:n]) {
					t.Errorf("%ds seed %d: cycle %d order %v differs from cycle 0 %v", seconds, seed, c, cyc, sched[:n])
				}
			}
			sorted := slices.Clone(sched)
			slices.Sort(sorted)
			if ref == nil {
				ref = sorted
			} else if !slices.Equal(sorted, ref) {
				t.Errorf("%ds seed %d: job multiset differs from seed 1's", seconds, seed)
			}
			for i := 0; i < n; i++ {
				if c := len(sched) - len(slices.DeleteFunc(slices.Clone(sched), func(j int) bool { return j == i })); c != cycles {
					t.Errorf("%ds seed %d: job %d runs %d times, want %d", seconds, seed, i, c, cycles)
				}
			}
		}
	}
	if slices.Equal(schedule(n, 1, 1), schedule(n, 1, 2)) {
		t.Error("seeds 1 and 2 give the same job order")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the metrics the code reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(units) != len(got) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics (%d names), the code reports %d", kind, len(got), len(units), len(want))
		}
		for _, m := range want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: code reports %s (%s), BENCHMARK.json has %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	got := parseMetrics([]byte("# comment\nvsd_trials_total 1200\nvsd_jobs_finished_total{type=\"campaign\",state=\"done\"} 7\nbad line\n"))
	if got["vsd_trials_total"] != 1200 || got[`vsd_jobs_finished_total{type="campaign",state="done"}`] != 7 || len(got) != 2 {
		t.Errorf("parseMetrics = %v", got)
	}
}

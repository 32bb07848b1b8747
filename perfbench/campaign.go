package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vsresil/internal/campaign"
	"vsresil/internal/experiments"
	"vsresil/internal/fault"
	"vsresil/internal/virat"
	"vsresil/internal/vs"
)

// campaignCycle is the nominal cost of one cycle of the campaign job
// list (16 campaigns of 400 trials) on a 2-core machine; it only sets
// how many cycles a run of --seconds holds.
const campaignCycle = 10 * time.Second

// campaignWorkers is each campaign's trial parallelism.
const campaignWorkers = 2

// campaignSetupReps set-ups of about 0.5 s each span some 6 s.
const campaignSetupReps = 13

// campaignJob is one fixed-budget campaign of the Fig 11a sweep.
type campaignJob struct {
	label string
	cell  int // index into the set-up's workloads
	class fault.Class
	seed  uint64
}

// campaignJobs is one cycle of the campaign workload: 2 inputs × 4 VS
// variants × {GPR, FPR}.
func campaignJobs() []campaignJob {
	var jobs []campaignJob
	for in := 1; in <= 2; in++ {
		for ai, alg := range vs.Algorithms() {
			for _, class := range []fault.Class{fault.GPR, fault.FPR} {
				i := len(jobs)
				s := jobSeed("campaign", i)
				jobs = append(jobs, campaignJob{
					label: fmt.Sprintf("Input%d/%v/%v/s%d", in, alg, class, s),
					cell:  (in-1)*len(vs.Algorithms()) + ai,
					class: class,
					seed:  s,
				})
			}
		}
	}
	return jobs
}

// campaignSetup is the state every campaign job shares: the generated
// inputs, the workloads over them and a runner whose golden cache holds
// every cell's staged golden run.
type campaignSetup struct {
	runner *campaign.Runner
	seqs   []*virat.Sequence
	cells  []campaign.Workload
}

// setupCampaignCells generates the inputs and captures each cell's
// staged golden run into a fresh runner cache.
func setupCampaignCells(tr *tracer, inputs []int, algs []vs.Algorithm) (*campaignSetup, error) {
	s := &campaignSetup{runner: &campaign.Runner{Goldens: campaign.NewGoldenCache(0)}}
	for _, in := range inputs {
		seq, err := generateInput(tr, in)
		if err != nil {
			return nil, err
		}
		s.seqs = append(s.seqs, seq)
		for _, alg := range algs {
			w := campaign.VS(alg, seq, appSeed)
			tr.do("fault.golden_capture", -1, -1, func() { _, err = s.runner.GoldenFor(w) })
			if err != nil {
				return nil, fmt.Errorf("golden %s/%v: %w", seq.Name, alg, err)
			}
			s.cells = append(s.cells, w)
		}
	}
	return s, nil
}

// generateInput renders paper input in at the benchmark's scale, under
// a virat.generate span.
func generateInput(tr *tracer, in int) (*virat.Sequence, error) {
	var seq *virat.Sequence
	var err error
	tr.do("virat.generate", -1, -1, func() {
		seq, err = virat.ParseInput(in, preset())
		if err == nil {
			seq.Frames()
		}
	})
	return seq, err
}

func runCampaignWorkload(opts options, tr *tracer) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	trials := experiments.DefaultOptions().Trials
	jobs := campaignJobs()
	cycles := cyclesFor(opts.seconds, campaignCycle)
	sched := schedule(len(jobs), cycles, opts.seed)
	check, err := newChecker("campaign")
	if err != nil {
		return nil, err
	}

	set, err := repeatSetup(rep, tr, campaignSetupReps, func(tr *tracer) (*campaignSetup, error) {
		return setupCampaignCells(tr, []int{1, 2}, vs.Algorithms())
	}, nil)
	if err != nil {
		return nil, err
	}

	runJob := func(j campaignJob, id int, am *allocMeter) (*campaign.Result, error) {
		spec := campaign.Spec{
			Workload: set.cells[j.cell],
			Class:    j.class,
			Region:   fault.RAny,
			Trials:   trials,
			Seed:     j.seed,
			Workers:  campaignWorkers,
		}
		var res *campaign.Result
		var err error
		root := tr.begin("job", -1, id)
		am.around(func() {
			tr.do("campaign.run", root, id, func() { res, err = set.runner.Run(ctx, spec) })
		})
		tr.end(root)
		return res, err
	}

	verify := func(j campaignJob, res *campaign.Result, err error) bool {
		var d uint64
		if err == nil {
			err = checkCampaignResult(res, trials)
		}
		if err == nil {
			d = countsDigest(res.Fault.Counts[:])
		}
		return rep.verify(check, j.label, d, err)
	}

	// One untimed warm-up job.
	res, err := runJob(jobs[sched[0]], -1, nil)
	if !verify(jobs[sched[0]], res, err) {
		return nil, fmt.Errorf("warm-up job failed: %s", rep.problems[len(rep.problems)-1])
	}

	var (
		latencies    []float64
		executed     int
		outcomes     [fault.NumOutcomes]int
		stats        fault.SchedStats
		classTrials  = map[fault.Class]int{}
		classSeconds = map[fault.Class]float64{}
		am           allocMeter
	)
	var meter *allocMeter
	if tr != nil {
		meter = &am
	}
	// The speed probe runs after every job; wall leaves it out.
	var probe speedProbe
	var wall float64
	heap := startHeapSampler()
	for id, k := range sched {
		j := jobs[k]
		t0 := time.Now()
		res, err := runJob(j, id, meter)
		lat := time.Since(t0).Seconds()
		ok := verify(j, res, err)
		wall += time.Since(t0).Seconds()
		probe.sample()
		if !ok {
			continue
		}
		latencies = append(latencies, lat)
		executed += res.Executed
		for o, n := range res.Fault.Counts {
			outcomes[o] += n
		}
		addSched(&stats, res.Fault.Sched)
		classTrials[j.class] += res.Executed
		classSeconds[j.class] += lat
	}
	heap.finish(rep)
	rep.stamp["cycles"] = cycles
	rep.stamp["jobs_per_cycle"] = len(jobs)
	printDigestTable(check)

	if tr == nil {
		rep.metrics["trials_per_s"] = float64(executed) / wall
		latencySummary(rep, latencies)
		scaleMetrics(rep, &probe)
		return rep, nil
	}

	// Traced run: per-layer metrics.
	times := selfTimes(tr.snapshot())
	rep.metrics["virat.generate_s"] = times["virat.generate"].meanSeconds()
	rep.metrics["fault.golden_capture_s"] = times["fault.golden_capture"].meanSeconds()
	rep.metrics["campaign.run_s"] = times["campaign.run"].meanSeconds()
	rep.metrics["fault.trial_us.gpr"] = 1e6 * ratio(classSeconds[fault.GPR], float64(classTrials[fault.GPR]))
	rep.metrics["fault.trial_us.fpr"] = 1e6 * ratio(classSeconds[fault.FPR], float64(classTrials[fault.FPR]))
	setSchedMetrics(rep, stats, executed, len(latencies))
	setOutcomeMetrics(rep, outcomes[:])
	rep.metrics["fault.alloc_bytes_per_trial"] = ratio(float64(am.bytes), float64(executed))
	rep.metrics["fault.gc_per_1k_trials"] = 1000 * ratio(float64(am.gcs), float64(executed))
	rep.metrics["bench.traced_trials_per_s"] = float64(executed) / wall
	rep.metrics["bench.traced_job_p50_s"] = median(latencies)
	scaleMetrics(rep, &probe)
	markServiceAbsent(rep)

	// Fixed-budget campaigns plan one Static round inside Runner.Run and
	// hold no session, so the planner and session layers are traced on
	// the adaptive job instead, once the measured jobs are done.
	if err := traceAdaptiveJob(ctx, rep, tr, set); err != nil {
		return nil, err
	}

	var stageInputs []stageInput
	for _, seq := range set.seqs {
		stageInputs = append(stageInputs, stageInput{name: seq.Name, frames: seq.Frames(), algs: vs.Algorithms(), seed: appSeed})
	}
	if err := measureStages(rep, tr, stageInputs, true); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkCampaignResult checks the invariants every fixed-budget campaign
// must hold whatever its seed: all trials completed and executed (none
// resumed), and the outcome counts sum to the trials.
func checkCampaignResult(res *campaign.Result, trials int) error {
	sum := 0
	for _, n := range res.Fault.Counts {
		sum += n
	}
	switch {
	case res.Fault.Completed != trials:
		return fmt.Errorf("completed %d of %d trials", res.Fault.Completed, trials)
	case res.Executed != trials:
		return fmt.Errorf("executed %d of %d trials (resumed trials in a fresh campaign)", res.Executed, trials)
	case sum != trials:
		return fmt.Errorf("outcome counts sum to %d, want %d", sum, trials)
	}
	return nil
}

// addSched folds one campaign's or window's scheduler counts into s.
func addSched(s *fault.SchedStats, o fault.SchedStats) {
	s.Batched += o.Batched
	s.RestoresSaved += o.RestoresSaved
	s.EarlyMasks += o.EarlyMasks
	s.Converged += o.Converged
}

// setSchedMetrics reports the executor's scheduling statistics as
// shares of the executed trials (restores saved per campaign).
func setSchedMetrics(rep *report, s fault.SchedStats, trials, campaigns int) {
	t := float64(trials)
	rep.metrics["fault.scratch_frac"] = ratio(t-float64(s.Batched), t)
	rep.metrics["fault.batched_frac"] = ratio(float64(s.Batched), t)
	rep.metrics["fault.restores_saved"] = ratio(float64(s.RestoresSaved), float64(campaigns))
	rep.metrics["fault.early_mask_frac"] = ratio(float64(s.EarlyMasks), t)
	rep.metrics["fault.converged_frac"] = ratio(float64(s.Converged), t)
}

// setOutcomeMetrics reports the outcome shares of all trials.
func setOutcomeMetrics(rep *report, counts []int) {
	total := 0
	for _, n := range counts {
		total += n
	}
	names := map[fault.Outcome]string{
		fault.OutcomeMask: "mask", fault.OutcomeCrash: "crash",
		fault.OutcomeSDC: "sdc", fault.OutcomeHang: "hang",
	}
	for o, name := range names {
		rep.metrics["fault.outcome."+name+"_frac"] = ratio(float64(counts[o]), float64(total))
	}
}

// markServiceAbsent marks the vsd metrics absent on the in-process
// workloads.
func markServiceAbsent(rep *report) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "service.") {
			rep.markAbsent("only the daemon workload goes through vsd", d.Name)
		}
	}
}

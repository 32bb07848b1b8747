package main

import (
	"context"
	"fmt"

	"vsresil/internal/campaign"
	"vsresil/internal/fault"
	"vsresil/internal/plan"
)

// The adaptive job: a confidence-driven campaign on Input1 (scene-cut
// heavy), baseline VS, GPR, whole program, run to a Wilson half-width
// of 0.1 at 90% confidence. The traced campaign run drives it through
// RunAdaptive and by hand to measure the planner and session layers.
const (
	adaptivePrecision  = 0.1
	adaptiveConfidence = 0.9
	adaptiveWorkers    = 2
	adaptiveShards     = 1
	adaptiveInput      = 1
)

// adaptiveJob is one campaign run to the target precision.
type adaptiveJob struct {
	label string
	seed  uint64
}

func newAdaptiveJob() adaptiveJob {
	s := jobSeed("adaptive", 0)
	return adaptiveJob{label: fmt.Sprintf("Input%d/VS/GPR/p%g/s%d", adaptiveInput, adaptivePrecision, s), seed: s}
}

// adaptiveOutcome is what one adaptive job produced, from either
// RunAdaptive or the hand-driven round loop.
type adaptiveOutcome struct {
	records  []fault.TrialRecord
	trials   int
	executed int
}

// digest folds the observed trial records and the executed count.
func (o *adaptiveOutcome) digest() uint64 {
	f := newFolder()
	for _, r := range o.records {
		landed := uint64(0)
		if r.Landed {
			landed = 1
		}
		f.add(uint64(r.Index), uint64(r.Outcome), uint64(r.Crash), landed)
	}
	f.add(uint64(o.executed))
	return f.sum()
}

// check verifies the invariants of a fresh adaptive campaign: every
// planned trial observed once, in plan-index order, and executed (none
// resumed).
func (o *adaptiveOutcome) check() error {
	if len(o.records) != o.trials {
		return fmt.Errorf("%d records for %d trials", len(o.records), o.trials)
	}
	for i, r := range o.records {
		if r.Index != i {
			return fmt.Errorf("record %d has plan index %d", i, r.Index)
		}
	}
	if o.executed != o.trials {
		return fmt.Errorf("executed %d of %d trials (resumed trials in a fresh campaign)", o.executed, o.trials)
	}
	return nil
}

func adaptiveSpec(w campaign.Workload, seed uint64) campaign.Spec {
	return campaign.Spec{
		Workload: w,
		Class:    fault.GPR,
		Region:   fault.RAny,
		Seed:     seed,
		Workers:  adaptiveWorkers,
		Adaptive: &campaign.AdaptiveSpec{
			Precision:  adaptivePrecision,
			Confidence: adaptiveConfidence,
		},
	}
}

// runAdaptiveJob runs one job through Runner.RunAdaptive.
func runAdaptiveJob(ctx context.Context, set *campaignSetup, seed uint64) (*adaptiveOutcome, error) {
	res, err := set.runner.RunAdaptive(ctx, adaptiveSpec(set.cells[0], seed), adaptiveShards)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("did not converge in %d trials", res.Trials)
	}
	return &adaptiveOutcome{records: res.Records, trials: res.Trials, executed: res.Executed}, nil
}

// handLoopStats is what the traced round loop observes.
type handLoopStats struct {
	session fault.SessionStats
	windows int
}

// runAdaptiveByHand drives the same campaign as RunAdaptive through the
// public planner and session API — plan.NewAdaptive, Runner.OpenSession,
// then Next / Session.RunPlans / Observe per round — with a span around
// every call. Its records must match RunAdaptive's bit for bit.
func runAdaptiveByHand(ctx context.Context, tr *tracer, set *campaignSetup, seed uint64, job int, st *handLoopStats) (*adaptiveOutcome, error) {
	root := tr.begin("job", -1, job)
	defer tr.end(root)
	spec := adaptiveSpec(set.cells[0], seed)
	golden, err := set.runner.GoldenFor(spec.Workload)
	if err != nil {
		return nil, err
	}
	var planner *plan.Adaptive
	tr.do("plan.new", root, job, func() {
		planner, err = plan.NewAdaptive(golden, plan.AdaptiveConfig{
			Class:      spec.Class,
			Region:     spec.Region,
			Seed:       spec.Seed,
			Precision:  adaptivePrecision,
			Confidence: adaptiveConfidence,
		})
	})
	if err != nil {
		return nil, err
	}
	var sess *campaign.Session
	tr.do("campaign.open_session", root, job, func() { sess, err = set.runner.OpenSession(spec) })
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	spec.Golden = sess.Golden()

	out := &adaptiveOutcome{}
	for {
		var round plan.Round
		var ok bool
		tr.do("plan.next", root, job, func() { round, ok = planner.Next() })
		if !ok {
			break
		}
		var res *campaign.Result
		tr.do("campaign.run_plans", root, job, func() { res, err = sess.RunPlans(ctx, spec, round.Plans, round.Lo) })
		if err != nil {
			return nil, err
		}
		outcomes := make([]fault.Outcome, len(res.Fault.Trials))
		for i := range res.Fault.Trials {
			outcomes[i] = res.Fault.Trials[i].Outcome
			out.records = append(out.records, res.Fault.Trials[i].Record(round.Lo+i))
		}
		tr.do("plan.observe", root, job, func() { planner.Observe(round, outcomes) })
		out.executed += res.Executed
		st.windows++
	}
	if !planner.Converged() {
		return nil, fmt.Errorf("did not converge in %d trials", planner.Total())
	}
	out.trials = planner.Total()
	st.session.Add(sess.Stats())
	return out, nil
}

// verifyAdaptive checks one adaptive job's invariants and digest.
func verifyAdaptive(rep *report, chk *checker, j adaptiveJob, out *adaptiveOutcome, err error) bool {
	var d uint64
	if err == nil {
		err = out.check()
	}
	if err == nil {
		d = out.digest()
	}
	return rep.verify(chk, j.label, d, err)
}

// traceAdaptiveJob runs the adaptive job once through RunAdaptive and
// once through the hand-driven round loop under tr, checks both against
// the committed digest and each other, and reports the planner, session
// and round-window metrics of the traced loop (session counters, rounds
// and trials for the one job, times per call). set.cells[0] must be the
// adaptive job's cell (Input1, VS).
func traceAdaptiveJob(ctx context.Context, rep *report, tr *tracer, set *campaignSetup) error {
	chk, err := newChecker("adaptive")
	if err != nil {
		return err
	}
	j := newAdaptiveJob()
	ref, err := runAdaptiveJob(ctx, set, j.seed)
	if !verifyAdaptive(rep, chk, j, ref, err) {
		return nil
	}
	var hand handLoopStats
	out, err := runAdaptiveByHand(ctx, tr, set, j.seed, -2, &hand)
	if !verifyAdaptive(rep, chk, j, out, err) {
		return nil
	}
	if out.digest() != ref.digest() {
		rep.fail("%s: hand-driven round loop digest %#x, RunAdaptive %#x", j.label, out.digest(), ref.digest())
	}
	times := selfTimes(tr.snapshot())
	rep.metrics["fault.session.prep_hits"] = float64(hand.session.BucketPrepHits)
	rep.metrics["fault.session.prep_misses"] = float64(hand.session.BucketPrepMisses)
	rep.metrics["fault.session.workers_reused"] = float64(hand.session.WorkersReused)
	rep.metrics["plan.next_s"] = times["plan.next"].meanSeconds()
	rep.metrics["plan.observe_s"] = times["plan.observe"].meanSeconds()
	rep.metrics["plan.rounds"] = float64(hand.windows)
	rep.metrics["plan.trials_to_precision"] = float64(out.executed)
	rep.metrics["campaign.open_session_s"] = times["campaign.open_session"].meanSeconds()
	rep.metrics["campaign.run_plans_s"] = times["campaign.run_plans"].meanSeconds()
	rep.metrics["campaign.window_trials"] = ratio(float64(out.executed), float64(hand.windows))
	return nil
}

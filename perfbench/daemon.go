package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vsresil/internal/fault"
	"vsresil/internal/service"
	"vsresil/internal/vs"
)

// The daemon workload: vsd served in-process on a loopback listener
// with its journal on, two closed-loop clients each waiting on its own
// job. Client A loops fault-free summarize jobs over 4 variants × 2
// inputs; client B loops 200-trial campaign jobs on the identity cell
// (Input2, VS, GPR) over a few seeds whose golden runs set-up warms.
const (
	daemonWorkers        = 2
	inputScale           = "test"
	daemonCampaignInput  = 2
	daemonCampaignTrials = 200
	daemonCampaignSeeds  = 4
	// daemonChunks is how many chunks a run's schedules are cut into;
	// daemonChunkProbes speed probes follow each, for as many samples
	// per run as the campaign workload takes.
	daemonChunks      = 16
	daemonChunkProbes = 4
	// daemonSetupReps set-ups of about 0.2 s each span some 6 s.
	daemonSetupReps = 31
	// pollInterval is how long a client sleeps between status polls.
	pollInterval = 2 * time.Millisecond
	// Nominal cycle costs on a 2-core machine under the two-client
	// load; they only set how many cycles a run of --seconds holds.
	summarizeCycle      = 750 * time.Millisecond
	daemonCampaignCycle = 1750 * time.Millisecond
)

// daemonJob is one job a client submits.
type daemonJob struct {
	label string
	spec  service.JobSpec
}

func summarizeJobs() []daemonJob {
	var jobs []daemonJob
	for in := 1; in <= 2; in++ {
		for _, alg := range vs.Algorithms() {
			s := jobSeed("summarize", len(jobs))
			jobs = append(jobs, daemonJob{
				label: fmt.Sprintf("summarize/Input%d/%v/s%d", in, alg, s),
				spec: service.JobSpec{Type: service.JobSummarize, Summarize: &service.SummarizeSpec{
					InputSpec: service.InputSpec{Input: in, Scale: inputScale, Frames: preset().Frames},
					Algorithm: alg.String(),
					Seed:      s,
				}},
			})
		}
	}
	return jobs
}

func daemonCampaignJobs(trials int) []daemonJob {
	jobs := make([]daemonJob, daemonCampaignSeeds)
	for i := range jobs {
		s := jobSeed("vsd-campaign", i)
		jobs[i] = daemonJob{
			label: fmt.Sprintf("campaign/Input%d/VS/GPR/t%d/s%d", daemonCampaignInput, trials, s),
			spec: service.JobSpec{Type: service.JobCampaign, Campaign: &service.CampaignSpec{
				InputSpec: service.InputSpec{Input: daemonCampaignInput, Scale: inputScale, Frames: preset().Frames},
				Algorithm: vs.AlgVS.String(),
				Class:     "gpr",
				Trials:    trials,
				Seed:      s,
				Workers:   1,
			}},
		}
	}
	return jobs
}

// daemon is one in-process vsd: service, HTTP server and journal dir.
type daemon struct {
	svc       *service.Service
	srv       *http.Server
	served    chan struct{}
	base      string
	dir       string
	journal   string
	warmTrial int // trials run by the set-up's golden warm-up jobs
}

// startDaemon starts the service with its journal, serves its handler
// on a loopback listener and warms the golden cache with one 1-trial
// campaign per campaign seed of client B.
func startDaemon(dir string, warm []daemonJob) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, journal: filepath.Join(dir, "vsd.journal"), served: make(chan struct{})}
	svc, err := service.New(service.Config{Workers: daemonWorkers, JournalPath: d.journal})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	c := newVSDClient(d.base)
	defer c.close()
	var wg sync.WaitGroup
	errs := make([]error, len(warm))
	for i, j := range warm {
		wg.Add(1)
		go func(i int, j daemonJob) {
			defer wg.Done()
			_, errs[i] = c.run(context.Background(), j.spec, nil, -1, -1)
		}(i, j)
		d.warmTrial += j.spec.Campaign.Trials
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stop()
		return nil, fmt.Errorf("golden warm-up: %w", err)
	}
	return d, nil
}

// stop shuts the server and the service down, waits for both and
// removes the journal directory. It runs after the measurement, so a
// failure here cannot change a reported number and is only printed.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-d.served
	if err := d.svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
	if err := os.RemoveAll(d.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// vsdClient is one client connection to the daemon.
type vsdClient struct {
	base string
	hc   *http.Client
}

func newVSDClient(base string) *vsdClient {
	return &vsdClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *vsdClient) close() { c.hc.CloseIdleConnections() }

// jobRun is one job as the client saw it.
type jobRun struct {
	latency, submit float64
	polls           int
	status          service.JobStatus
	result          []byte
}

func (c *vsdClient) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// run submits spec, polls its status until it is terminal and fetches
// its result document. Latency runs from the POST to the fetched
// result; the caller adds decoding.
func (c *vsdClient) run(ctx context.Context, spec service.JobSpec, tr *tracer, parent, job int) (*jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	out := &jobRun{}
	start := time.Now()
	var st service.JobStatus
	sid := tr.begin("service.submit", parent, job)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sid)
	out.submit = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	for st.State == service.StateQueued || st.State == service.StateRunning {
		time.Sleep(pollInterval)
		pid := tr.begin("service.poll", parent, job)
		raw, code, err := c.get(ctx, "/v1/jobs/"+st.ID)
		tr.end(pid)
		out.polls++
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("status %s: HTTP %d", st.ID, code)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("status %s: %w", st.ID, err)
		}
	}
	out.status = st
	if st.State != service.StateDone {
		return out, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	rid := tr.begin("service.result", parent, job)
	raw, code, err := c.get(ctx, "/v1/jobs/"+st.ID+"/result")
	tr.end(rid)
	if err != nil {
		return out, err
	}
	if code != http.StatusOK {
		return out, fmt.Errorf("result %s: HTTP %d", st.ID, code)
	}
	out.result = raw
	out.latency = time.Since(start).Seconds()
	return out, nil
}

// summarizeDigest decodes a summarize result and folds its panorama
// geometry.
func summarizeDigest(raw []byte) (uint64, *service.SummarizeResult, error) {
	var r service.SummarizeResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, nil, err
	}
	if len(r.Panoramas) == 0 {
		return 0, nil, fmt.Errorf("no panoramas")
	}
	f := newFolder()
	f.add(uint64(r.Frames), uint64(r.Dropped), uint64(r.Discarded), uint64(len(r.Panoramas)))
	for _, p := range r.Panoramas {
		f.add(uint64(p.W), uint64(p.H), uint64(int64(p.MinX)), uint64(int64(p.MinY)), uint64(p.Frames))
	}
	return f.sum(), &r, nil
}

// campaignDigest decodes a campaign result, checks the fresh-campaign
// invariants and folds the outcome counts.
func campaignDigest(raw []byte, trials int) (uint64, *service.CampaignResult, error) {
	var r service.CampaignResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, nil, err
	}
	counts := make([]int, fault.NumOutcomes)
	sum := 0
	for o := range counts {
		counts[o] = r.Counts[fault.Outcome(o).String()]
		sum += counts[o]
	}
	switch {
	case r.Trials != trials || r.Completed != trials:
		return 0, nil, fmt.Errorf("completed %d of %d trials (want %d)", r.Completed, r.Trials, trials)
	case r.Resumed != 0:
		return 0, nil, fmt.Errorf("%d trials resumed in a fresh campaign", r.Resumed)
	case sum != trials:
		return 0, nil, fmt.Errorf("outcome counts sum to %d, want %d", sum, trials)
	}
	return countsDigest(counts), &r, nil
}

// clientTally is what one client observed over its loops. Its lists and
// wall cover the scheduled jobs; extraDone and extraTrials count the
// filler jobs run after them.
type clientTally struct {
	latencies, submits, queueWaits, runs, overheads []float64
	polls, resultBytes                              int
	done, trials                                    int
	outcomes                                        [fault.NumOutcomes]int
	trialSeconds                                    float64
	stageWall, stageOps                             map[string]float64
	// wall sums, over the loops, the time from a loop's start to the
	// end of its last scheduled job.
	wall                   float64
	extraDone, extraTrials int
}

func newClientTally() *clientTally {
	return &clientTally{stageWall: map[string]float64{}, stageOps: map[string]float64{}}
}

// loop runs the scheduled jobs back to back, checking each result and
// adding it to t. Once they are done it closes finished and, until until
// is closed, keeps running jobs of the list in the same order: the
// filler keeps the daemon under both clients' load until the other
// client's scheduled jobs are done, so neither is timed with the machine
// to itself. Filler jobs are checked like the others but not timed. A
// nil until means no filler.
func (c *vsdClient) loop(ctx context.Context, rep *report, mu *sync.Mutex, chk *checker, jobs []daemonJob, sched []int, idBase int, tr *tracer, t *clientTally, finished chan<- struct{}, until <-chan struct{}) {
	start := time.Now()
	for n := 0; ; n++ {
		timed := n < len(sched)
		if !timed {
			if n == len(sched) {
				t.wall += time.Since(start).Seconds()
				if finished != nil {
					close(finished)
				}
			}
			if until == nil {
				return
			}
			select {
			case <-until:
				return
			default:
			}
		}
		j := jobs[sched[n%len(sched)]]
		jtr := tr
		if !timed {
			jtr = nil
		}
		id := idBase + n
		root := jtr.begin("job", -1, id)
		t0 := time.Now()
		run, err := c.run(ctx, j.spec, jtr, root, id)
		var d uint64
		var sres *service.SummarizeResult
		var cres *service.CampaignResult
		if err == nil {
			if j.spec.Type == service.JobSummarize {
				d, sres, err = summarizeDigest(run.result)
			} else {
				d, cres, err = campaignDigest(run.result, j.spec.Campaign.Trials)
			}
		}
		lat := time.Since(t0).Seconds()
		jtr.end(root)
		mu.Lock()
		ok := rep.verify(chk, j.label, d, err)
		mu.Unlock()
		if !ok {
			continue
		}
		if !timed {
			t.extraDone++
			if cres != nil {
				t.extraTrials += cres.Completed - cres.Resumed
			}
			continue
		}
		t.done++
		t.latencies = append(t.latencies, lat)
		t.submits = append(t.submits, run.submit)
		t.polls += run.polls
		t.resultBytes += len(run.result)
		st := run.status
		if st.StartedAt != nil && st.FinishedAt != nil {
			t.queueWaits = append(t.queueWaits, st.StartedAt.Sub(st.EnqueuedAt).Seconds())
			runS := st.FinishedAt.Sub(*st.StartedAt).Seconds()
			t.runs = append(t.runs, runS)
			t.overheads = append(t.overheads, lat-runS)
		}
		if cres != nil {
			t.trials += cres.Completed - cres.Resumed
			t.trialSeconds += cres.ElapsedSec
			for o := range t.outcomes {
				t.outcomes[o] += cres.Counts[fault.Outcome(o).String()]
			}
		}
		if sres != nil {
			for _, s := range sres.Stages {
				t.stageWall[s.Stage] += s.WallSec
				t.stageOps[s.Stage] += float64(s.Ops)
			}
		}
	}
}

func runDaemonWorkload(opts options, tr *tracer) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	sumJobs := summarizeJobs()
	campJobs := daemonCampaignJobs(daemonCampaignTrials)
	warmJobs := daemonCampaignJobs(1)
	cyclesA := cyclesFor(opts.seconds, summarizeCycle)
	cyclesB := cyclesFor(opts.seconds, daemonCampaignCycle)
	schedA := schedule(len(sumJobs), cyclesA, opts.seed)
	schedB := schedule(len(campJobs), cyclesB, opts.seed)
	chk, err := newChecker("daemon")
	if err != nil {
		return nil, err
	}

	// Each set-up's predecessor is stopped, and its directory removed,
	// before the next one starts, so they can share one directory.
	d, err := repeatSetup(rep, nil, daemonSetupReps, func(*tracer) (*daemon, error) {
		return startDaemon(filepath.Join(outDir, "vsd"), warmJobs)
	}, func(d *daemon) { d.stop() })
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var mu sync.Mutex
	a, b := newVSDClient(d.base), newVSDClient(d.base)
	defer a.close()
	defer b.close()
	// One untimed warm-up job per client.
	warmA, warmB := newClientTally(), newClientTally()
	a.loop(ctx, rep, &mu, chk, sumJobs, schedA[:1], -1000, nil, warmA, nil, nil)
	b.loop(ctx, rep, &mu, chk, campJobs, schedB[:1], -1000, nil, warmB, nil, nil)
	if warmA.done != 1 || warmB.done != 1 {
		return nil, fmt.Errorf("warm-up job failed: %s", strings.Join(rep.problems, "; "))
	}

	// The schedules run in chunks. In each, both clients run their share
	// at once, each timed over its own share and running filler jobs
	// after it until the other's share is done too. Between chunks, with
	// the daemon idle, the speed probe runs.
	ta, tb := newClientTally(), newClientTally()
	chunks := min(daemonChunks, len(schedA), len(schedB))
	var probe speedProbe
	heap := startHeapSampler()
	for c := 0; c < chunks; c++ {
		loA, hiA := len(schedA)*c/chunks, len(schedA)*(c+1)/chunks
		loB, hiB := len(schedB)*c/chunks, len(schedB)*(c+1)/chunks
		doneA, doneB := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.loop(ctx, rep, &mu, chk, sumJobs, schedA[loA:hiA], loA, tr, ta, doneA, doneB)
		}()
		go func() {
			defer wg.Done()
			b.loop(ctx, rep, &mu, chk, campJobs, schedB[loB:hiB], 1<<20+loB, tr, tb, doneB, doneA)
		}()
		wg.Wait()
		for range daemonChunkProbes {
			probe.sample()
		}
	}
	heap.finish(rep)
	rep.stamp["cycles"] = fmt.Sprintf("summarize %d x %d, campaign %d x %d, in %d chunks", cyclesA, len(sumJobs), cyclesB, len(campJobs), chunks)
	rep.stamp["filler_jobs"] = fmt.Sprintf("summarize %d, campaign %d", ta.extraDone, tb.extraDone)
	rep.stamp["client_wall_s"] = fmt.Sprintf("summarize %.2f, campaign %.2f", ta.wall, tb.wall)
	rep.stamp["campaign_job_latency"] = fmt.Sprintf("p50 %.4fs", median(tb.latencies))
	printDigestTable(chk)

	// The daemon's own counters must agree with what the clients saw.
	vm, err := scrapeMetrics(ctx, a)
	if err != nil {
		return nil, err
	}
	summarizeDone := warmA.done + ta.done + ta.extraDone
	campaignsDone := len(warmJobs) + warmB.done + tb.done + tb.extraDone
	want := map[string]float64{
		`vsd_jobs_finished_total{type="summarize",state="done"}`: float64(summarizeDone),
		`vsd_jobs_finished_total{type="campaign",state="done"}`:  float64(campaignsDone),
		`vsd_trials_total`:              float64(d.warmTrial + warmB.trials + tb.trials + tb.extraTrials),
		`vsd_golden_cache_hits_total`:   float64(campaignsDone - len(warmJobs)),
		`vsd_golden_cache_misses_total`: float64(len(warmJobs)),
		`vsd_jobs{state="failed"}`:      0,
		`vsd_stage_metered_runs_total`:  float64(summarizeDone),
	}
	for _, k := range sortedKeys(want) {
		if got := vm[k]; got != want[k] {
			rep.fail("/metrics %s = %v, clients counted %v", k, got, want[k])
		}
	}

	if tr == nil {
		rep.metrics["trials_per_s"] = float64(tb.trials) / tb.wall
		latencySummary(rep, ta.latencies)
		scaleMetrics(rep, &probe)
		return rep, nil
	}

	for typ, t := range map[string]*clientTally{"summarize": ta, "campaign": tb} {
		n := float64(t.done)
		rep.metrics["service.submit_s."+typ] = mean(t.submits)
		rep.metrics["service.queue_wait_s."+typ] = mean(t.queueWaits)
		rep.metrics["service.run_s."+typ] = mean(t.runs)
		rep.metrics["service.client_overhead_s."+typ] = mean(t.overheads)
		rep.metrics["service.polls_per_job."+typ] = ratio(float64(t.polls), n)
		rep.metrics["service.result_bytes."+typ] = ratio(float64(t.resultBytes), n)
		rep.metrics["service.latency_p50_s."+typ] = median(t.latencies)
		if tail, _, ok := tailPercentile(t.latencies); ok {
			rep.metrics["service.latency_tail_s."+typ] = tail
		} else {
			rep.markAbsent(tailStamp(0, len(t.latencies), false), "service.latency_tail_s."+typ)
		}
	}
	perJob, err := journalBytesPerJob(d.journal)
	if err != nil {
		return nil, err
	}
	for _, typ := range []string{"summarize", "campaign"} {
		rep.metrics["service.journal_bytes_per_job."+typ] = perJob[typ]
	}
	rep.metrics["fault.trial_us.gpr"] = 1e6 * ratio(tb.trialSeconds, float64(tb.trials))
	setOutcomeMetrics(rep, tb.outcomes[:])
	allTrials := vm["vsd_trials_total"]
	setSchedMetrics(rep, fault.SchedStats{
		Batched:       int(vm["vsd_campaign_bucket_trials_total"]),
		RestoresSaved: int(vm["vsd_campaign_bucket_restores_saved_total"]),
		EarlyMasks:    int(vm["vsd_campaign_bucket_early_masks_total"]),
		Converged:     int(vm["vsd_campaign_bucket_converged_total"]),
	}, int(allTrials), campaignsDone)
	setStageMetrics(rep, ta.stageWall, ta.stageOps, ta.done)
	rep.metrics["bench.traced_trials_per_s"] = float64(tb.trials) / tb.wall
	rep.metrics["bench.traced_job_p50_s"] = median(ta.latencies)
	scaleMetrics(rep, &probe)

	// Fault-free stage timings over the daemon's inputs.
	var inputs []stageInput
	for in := 1; in <= 2; in++ {
		seq, err := generateInput(tr, in)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, stageInput{name: seq.Name, frames: seq.Frames(), algs: vs.Algorithms(), seed: appSeed})
	}
	if err := measureStages(rep, tr, inputs, false); err != nil {
		return nil, err
	}
	times := selfTimes(tr.snapshot())
	rep.metrics["virat.generate_s"] = times["virat.generate"].meanSeconds()

	rep.markAbsent("golden runs are captured inside vsd campaign jobs; no fault call is made from outside", "fault.golden_capture_s")
	rep.markAbsent("the daemon's campaign jobs inject GPR faults only", "fault.trial_us.fpr")
	rep.markAbsent("vsd reports executor-session counters for adaptive jobs only",
		"fault.session.prep_hits", "fault.session.prep_misses", "fault.session.workers_reused")
	rep.markAbsent("summarize, HTTP and campaign allocations share one in-process heap",
		"fault.alloc_bytes_per_trial", "fault.gc_per_1k_trials")
	rep.markAbsent("vsd runs campaigns inside the service; no planner or session is called from outside",
		"plan.next_s", "plan.observe_s", "plan.rounds", "plan.trials_to_precision",
		"campaign.run_s", "campaign.open_session_s", "campaign.run_plans_s", "campaign.window_trials")
	return rep, nil
}

// scrapeMetrics reads /metrics once into a map keyed by the series name
// with its labels.
func scrapeMetrics(ctx context.Context, c *vsdClient) (map[string]float64, error) {
	raw, code, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseMetrics(raw), nil
}

// parseMetrics parses the text exposition: one "series value" per
// line, comments skipped.
func parseMetrics(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// journalBytesPerJob attributes every journal line to its job's type
// and returns the mean bytes per job of each type.
func journalBytesPerJob(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read journal: %w", err)
	}
	type rec struct {
		ID  string `json:"id"`
		Job *struct {
			ID   string `json:"id"`
			Spec struct {
				Type string `json:"type"`
			} `json:"spec"`
		} `json:"job"`
	}
	typeOf := map[string]string{}
	bytesOf := map[string]int{}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("journal line: %w", err)
		}
		id := r.ID
		if r.Job != nil {
			id = r.Job.ID
			typeOf[id] = r.Job.Spec.Type
		}
		bytesOf[id] += len(line) + 1
	}
	total := map[string]int{}
	jobs := map[string]int{}
	for id, n := range bytesOf {
		total[typeOf[id]] += n
		jobs[typeOf[id]]++
	}
	out := map[string]float64{}
	for typ, n := range total {
		out[typ] = ratio(float64(n), float64(jobs[typ]))
	}
	return out, nil
}

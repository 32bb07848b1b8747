package main

import (
	"fmt"

	"vsresil/internal/imgproc"
	"vsresil/internal/probe"
	"vsresil/internal/stitch"
	"vsresil/internal/vs"
)

// stageRegions names the probe.Meter regions reported as
// stage.<region>.wall_s and stage.<region>.ops: those a metered VS run
// counts operations in (app and remapBilinear record none).
func stageRegions() []string {
	var out []string
	for _, r := range []probe.Region{probe.RFASTDetect, probe.RORBDescribe, probe.RMatch,
		probe.RRANSAC, probe.RWarpInvoker, probe.RBlend, probe.RDecode} {
		out = append(out, r.String())
	}
	return out
}

// stageReps repeats each fault-free stage timing to steady the means.
const stageReps = 3

// stageInput is one fault-free pipeline input: frames and the VS
// variants run over it.
type stageInput struct {
	name   string
	frames []*imgproc.Gray
	algs   []vs.Algorithm
	seed   uint64
}

// measureStages times the pipeline's stage entry points on probe.Nop
// over the workload's inputs — stitch.DetectFrame, BeginAlign+AlignStep
// and Composite for the baseline stitcher, App.Run for every variant —
// and, when metered is set, runs every variant once more on a
// probe.Meter for the per-region wall time and op counts. Values are
// means per pipeline run.
func measureStages(rep *report, tr *tracer, inputs []stageInput, metered bool) error {
	runs := 0
	meterRuns := 0
	wall := make(map[string]float64)
	ops := make(map[string]float64)
	for _, in := range inputs {
		scfg := stitch.DefaultConfig()
		scfg.Seed = in.seed
		st := stitch.New(scfg)
		for rep := 0; rep < stageReps; rep++ {
			root := tr.begin("stages", -1, -1)
			feats := make([]stitch.FrameFeatures, len(in.frames))
			tr.do("stitch.detect", root, -1, func() {
				for i, g := range in.frames {
					feats[i] = st.DetectFrame(g, probe.Nop{})
				}
			})
			var a stitch.AlignState
			tr.do("stitch.align", root, -1, func() {
				a = st.BeginAlign(in.frames, probe.Nop{})
				for a.Next < a.N {
					st.AlignStep(feats, &a, probe.Nop{})
				}
			})
			var err error
			tr.do("stitch.composite", root, -1, func() {
				_, err = st.Composite(in.frames, &a, probe.Nop{})
			})
			if err != nil {
				return fmt.Errorf("stitch %s: %w", in.name, err)
			}
			for _, alg := range in.algs {
				cfg := vs.DefaultConfig(alg)
				cfg.Seed = in.seed
				app := vs.New(cfg, len(in.frames))
				tr.do("vs.run", root, -1, func() { _, err = app.Run(in.frames, probe.Nop{}) })
				if err != nil {
					return fmt.Errorf("vs %s/%v: %w", in.name, alg, err)
				}
			}
			tr.end(root)
			runs++
		}
		if !metered {
			continue
		}
		for _, alg := range in.algs {
			cfg := vs.DefaultConfig(alg)
			cfg.Seed = in.seed
			meter := probe.NewMeter()
			if _, err := vs.New(cfg, len(in.frames)).Run(in.frames, meter); err != nil {
				return fmt.Errorf("metered vs %s/%v: %w", in.name, alg, err)
			}
			for _, rs := range meter.Snapshot() {
				var n uint64
				for _, c := range rs.Ops {
					n += c
				}
				wall[rs.Region.String()] += rs.Wall.Seconds()
				ops[rs.Region.String()] += float64(n)
			}
			meterRuns++
		}
	}
	times := selfTimes(tr.snapshot())
	for _, name := range []string{"stitch.detect", "stitch.align", "stitch.composite", "vs.run"} {
		rep.metrics[name+"_s"] = times[name].meanSeconds()
	}
	if metered {
		setStageMetrics(rep, wall, ops, meterRuns)
	}
	return nil
}

// setStageMetrics reports per-region Meter totals as means per run.
func setStageMetrics(rep *report, wall, ops map[string]float64, runs int) {
	for _, r := range stageRegions() {
		rep.metrics["stage."+r+".wall_s"] = ratio(wall[r], float64(runs))
		rep.metrics["stage."+r+".ops"] = ratio(ops[r], float64(runs))
	}
}

package main

import (
	"strings"
	"sync"
	"time"
)

// The machine the benchmark was sized on changes speed under other
// tenants' load: a fixed loop takes 0.25 s or 0.37 s from one second to
// the next, and over minutes ten back-to-back runs of identical campaign
// work read from 728 to 1,266 trials/s. Every run therefore times a
// fixed kernel of the benchmark's own at points where the program is
// idle (between campaign jobs, between daemon chunks) and reports its
// times and rates scaled to the speed at which that kernel takes
// refProbe. The kernel never calls the program; only garbage-collection
// work the program left running can reach it. The unscaled figures and
// the probe are in the stamp.

// refProbe is the kernel time that counts as reference speed. It is
// fixed; run slowdowns on the 2-vCPU VM in README.md ranged 0.63–1.12.
const refProbe = 22.5e-3

const (
	probeW, probeH = 96, 72
	probeFrames    = 8
	// probeReps passes over the frames make one probe of about 20 ms.
	probeReps = 36
	// probeThreads matches the two busy executors of every workload.
	probeThreads = 2
)

// probeSrc is the kernel's input: pseudo-random gray frames of the
// benchmark's scale. probeDst holds each thread's output; both live for
// the whole run so that probing adds nothing to the measured heap.
var (
	probeSrc = func() [][]uint8 {
		fr := make([][]uint8, probeFrames)
		x := uint32(1)
		for i := range fr {
			fr[i] = make([]uint8, probeW*probeH)
			for j := range fr[i] {
				x = x*1664525 + 1013904223
				fr[i][j] = uint8(x >> 24)
			}
		}
		return fr
	}()
	probeDst = func() [probeThreads][]uint8 {
		var d [probeThreads][]uint8
		for i := range d {
			d[i] = make([]uint8, probeW*probeH)
		}
		return d
	}()
)

// boxBlur writes the 3×3 box blur of every source frame's interior to dst.
func boxBlur(dst []uint8) {
	for _, src := range probeSrc {
		for y := 1; y < probeH-1; y++ {
			for x := 1; x < probeW-1; x++ {
				s := 0
				for dy := -1; dy <= 1; dy++ {
					o := (y+dy)*probeW + x
					s += int(src[o-1]) + int(src[o]) + int(src[o+1])
				}
				dst[y*probeW+x] = uint8(s / 9)
			}
		}
	}
}

// speedProbe collects kernel times over the measured phase of a run.
type speedProbe struct {
	times []float64
}

// sample times the kernel on probeThreads goroutines. It forces no GC:
// collecting the program's garbage outside the timed jobs would hide
// allocation costs.
func (p *speedProbe) sample() {
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < probeThreads; t++ {
		wg.Add(1)
		go func(dst []uint8) {
			defer wg.Done()
			for r := 0; r < probeReps; r++ {
				boxBlur(dst)
			}
		}(probeDst[t])
	}
	wg.Wait()
	p.times = append(p.times, time.Since(start).Seconds())
}

// slowdown is how much slower than the reference the machine ran the
// kernel over the run: divide times by it, multiply rates by it. It is
// the mean kernel time, not the median, over refProbe: the machine
// flips between a fast and a slow speed, the jobs take the
// time-weighted mix of both, and the mean follows that mix while a
// median jumps to whichever speed held more than half the samples. It
// is 1 when nothing was sampled.
func (p *speedProbe) slowdown() float64 {
	if len(p.times) == 0 {
		return 1
	}
	return mean(p.times) / refProbe
}

// scaledMetrics are the end-to-end times and rates, and the traced
// run's copies of them, that scaleMetrics converts.
var scaledMetrics = []string{"setup_s", "trials_per_s", "job_p50_s", "job_tail_s",
	"bench.traced_trials_per_s", "bench.traced_job_p50_s"}

// scaleMetrics converts rep's times and rates to reference speed by the
// run's slowdown, and keeps the measured values and the probe in the
// stamp. setup_s is scaled by the measured phase's slowdown too: probes
// between set-ups read the machine no better than the set-up times
// themselves did.
func scaleMetrics(rep *report, p *speedProbe) {
	slow := p.slowdown()
	unscaled := make(map[string]float64)
	for _, name := range scaledMetrics {
		v, ok := rep.metrics[name]
		if !ok {
			continue
		}
		unscaled[name] = v
		if strings.HasSuffix(name, "_per_s") {
			rep.metrics[name] = v * slow
		} else {
			rep.metrics[name] = v / slow
		}
	}
	rep.stamp["unscaled"] = unscaled
	rep.stamp["probe"] = map[string]any{"samples": len(p.times), "mean_s": mean(p.times), "slowdown": slow}
}

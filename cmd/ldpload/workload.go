package main

import (
	"fmt"
	"slices"
	"time"

	"ldprecover/internal/attack"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// lane is the ingest endpoint a workload's frames go to.
type lane int

const (
	// reportLane posts "LB" report-batch frames to /v1/reports.
	reportLane lane = iota
	// partialLane posts "LP" pre-aggregated partial tallies to
	// /v1/partial.
	partialLane
)

// workload is one traffic mix against one `serve` configuration. Rates,
// cadences and sizes are constants here and in BENCHMARK.json, never
// flags, so both commits of a comparison run identical settings.
type workload struct {
	name     string
	protocol string // serve -protocol
	d        int    // serve -d
	lane     lane
	// rate is the open-loop rate of the rate phase, in frames per second:
	// a fifth of the saturated rate or less, so that a slow stretch of the
	// host neither fills the ingest queue (a 429 fails a rate-phase send)
	// nor moves the latencies through queueing.
	rate float64
	// satSealEvery is the seal cadence of the saturate phase (0: none);
	// satReads adds an estimate read between those seals.
	satSealEvery time.Duration
	satReads     bool
	// attackFrom is the first epoch whose partial frames carry MGA
	// reports; report frames always do.
	attackFrom int
	// crashFill, when positive, makes set-up a crash recovery: a durable
	// server takes a fixed fill of that many frames, is SIGKILLed, and is
	// rebooted on the same data directory, timed.
	crashFill int
}

// workloads are the benchmark's traffic mixes; README.md records why
// each exists and what it should and should not move.
var workloads = []workload{
	{
		name:     "olh-fold",
		protocol: "olh", d: 1024, lane: reportLane, rate: 400,
		satSealEvery: time.Second,
	},
	{
		name:     "partial-seal",
		protocol: "oue", d: 4096, lane: partialLane, rate: 200,
		satSealEvery: 100 * time.Millisecond, satReads: true, attackFrom: 10,
	},
	{
		name:     "crash-replay",
		protocol: "oue", d: 128, lane: reportLane, rate: 1000,
		satSealEvery: time.Second, crashFill: 40000,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Input shape. A report frame holds 256 genuine reports plus 13 MGA
// reports (attacker share β ≈ 5%); a partial frame pre-aggregates 4096
// users, 205 of them MGA once the attack is on.
const (
	poolFrames      = 64
	verifyFrames    = 8
	genuinePerFrame = 256
	mgaPerFrame     = 13
	partialUsers    = 4096
	partialMGA      = 205
	numTargets      = 10
	zipfExponent    = 1.0
	epsilon         = 0.5
)

// inputs are everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	proto   ldp.Protocol
	targets []int // the MGA targets, sorted

	// Report lane: the send pool and the verification set.
	frames       [][]byte
	verify       [][]byte
	frameReports int64 // reports per report frame

	// Partial lane: genuine-only and attacked pools and the verification
	// set. Frames are marshaled at send time, stamped with the current
	// epoch hint.
	clean, attacked []*ldp.PartialTally
	verifyPartials  []*ldp.PartialTally
}

// newProtocol builds the workload's protocol.
func newProtocol(name string, d int) (ldp.Protocol, error) {
	switch name {
	case "oue":
		return ldp.NewOUE(d, epsilon)
	case "olh":
		return ldp.NewOLH(d, epsilon)
	}
	return nil, fmt.Errorf("unknown protocol %q", name)
}

// population draws Zipf(1.0) users over a seeded rank-to-item mapping.
type population struct {
	zipf *rng.Zipf
	perm []int
	d    int
}

func newPopulation(r *rng.Rand, d int) (*population, error) {
	z, err := rng.NewZipf(d, zipfExponent)
	if err != nil {
		return nil, err
	}
	return &population{zipf: z, perm: r.Perm(d), d: d}, nil
}

// trueCounts draws n users and returns their per-item counts.
func (p *population) trueCounts(r *rng.Rand, n int) []int64 {
	counts := make([]int64, p.d)
	for i := 0; i < n; i++ {
		counts[p.perm[p.zipf.Pick(r)]]++
	}
	return counts
}

// genInputs generates a workload's inputs from the seed.
func genInputs(w workload, seed uint64) (*inputs, error) {
	proto, err := newProtocol(w.protocol, w.d)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	pop, err := newPopulation(r, w.d)
	if err != nil {
		return nil, err
	}
	targets, err := attack.RandomTargets(r, w.d, numTargets)
	if err != nil {
		return nil, err
	}
	slices.Sort(targets)
	mga, err := attack.NewMGA(targets)
	if err != nil {
		return nil, err
	}
	in := &inputs{proto: proto, targets: targets}
	switch w.lane {
	case reportLane:
		in.frameReports = genuinePerFrame + mgaPerFrame
		var scratch ldp.PerturbScratch
		gen := func(n int) ([][]byte, error) {
			out := make([][]byte, n)
			for i := range out {
				if out[i], err = reportFrame(r, proto, pop, mga, &scratch); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		if in.frames, err = gen(poolFrames); err != nil {
			return nil, err
		}
		if in.verify, err = gen(verifyFrames); err != nil {
			return nil, err
		}
	case partialLane:
		gen := func(n int, mal int64) ([]*ldp.PartialTally, error) {
			out := make([]*ldp.PartialTally, n)
			for i := range out {
				if out[i], err = partialTally(r, proto, pop, mga, mal); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		if in.clean, err = gen(poolFrames, 0); err != nil {
			return nil, err
		}
		if in.attacked, err = gen(poolFrames, partialMGA); err != nil {
			return nil, err
		}
		if in.verifyPartials, err = gen(verifyFrames, partialMGA); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// reportFrame marshals one frame of genuine Zipf reports followed by MGA
// reports.
func reportFrame(r *rng.Rand, proto ldp.Protocol, pop *population, mga *attack.MGA, scratch *ldp.PerturbScratch) ([]byte, error) {
	reps, err := ldp.PerturbAllInto(proto, r, pop.trueCounts(r, genuinePerFrame), scratch)
	if err != nil {
		return nil, err
	}
	mal, err := mga.CraftReports(r, proto, mgaPerFrame)
	if err != nil {
		return nil, err
	}
	return ldp.MarshalReportBatch(append(slices.Clone(reps), mal...))
}

// partialTally pre-aggregates partialUsers users, mal of them MGA, the
// way an edge collector would: Collector.AddCounts of the genuine and the
// malicious support counts.
func partialTally(r *rng.Rand, proto ldp.Protocol, pop *population, mga *attack.MGA, mal int64) (*ldp.PartialTally, error) {
	c, err := ldp.NewCollector("ldpload", proto.Params().Domain)
	if err != nil {
		return nil, err
	}
	genuine := int64(partialUsers) - mal
	counts, err := proto.SimulateGenuineCounts(r, pop.trueCounts(r, int(genuine)))
	if err != nil {
		return nil, err
	}
	if err := c.AddCounts(counts, genuine); err != nil {
		return nil, err
	}
	if mal > 0 {
		mc, err := mga.CraftCounts(r, proto, mal)
		if err != nil {
			return nil, err
		}
		if err := c.AddCounts(mc, mal); err != nil {
			return nil, err
		}
	}
	return c.Partial(0)
}

// stamp marshals a partial tally with the given epoch hint.
func stamp(p *ldp.PartialTally, hint int) ([]byte, error) {
	q := *p
	q.EpochHint = hint
	return ldp.MarshalPartial(&q)
}

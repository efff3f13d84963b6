package main

import (
	"errors"
	"os"
	"path/filepath"

	"ldprecover/internal/core"
	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/rng"
	"ldprecover/internal/stream"
)

// The traced run replays a workload's generated inputs in-process
// through the layers' public functions, timing each call from here;
// nothing inside the program is instrumented. Each frame goes through
// the stages in the order the serve handlers and persist.Store run them.
// The live phases run an in-memory server, so the persist stages are
// what a durable server would add on top; they stay out of the stage
// sum.

// Trace sizes: seals replayed on the workload's rate-phase schedule,
// sends left in the WAL for the replay measurement, and client batches.
const (
	traceSeals         = 40
	traceReplayFrames  = 2000
	traceReplayPartial = 200
	traceClientBatches = 16
)

// span is one stage's accumulated calls.
type span struct {
	ns    float64
	calls int
	units int64 // reports (users) the calls covered
}

// tracer accumulates spans by stage name.
type tracer map[string]*span

// time runs fn as one call of the named stage covering units reports.
func (t tracer) time(name string, units int64, fn func() error) error {
	start := now()
	err := fn()
	el := since(start)
	s := t[name]
	if s == nil {
		s = &span{}
		t[name] = s
	}
	s.ns += float64(el.Nanoseconds())
	s.calls++
	s.units += units
	return err
}

// perCall is the stage's mean time per call, in ns.
func (t tracer) perCall(name string) float64 {
	if s := t[name]; s != nil && s.calls > 0 {
		return s.ns / float64(s.calls)
	}
	return 0
}

// total is the stage's summed time, in ns.
func (t tracer) total(name string) float64 {
	if s := t[name]; s != nil {
		return s.ns
	}
	return 0
}

// perUnit is the stage's time per report (user), in ns.
func (t tracer) perUnit(name string) float64 {
	if s := t[name]; s != nil && s.units > 0 {
		return s.ns / float64(s.units)
	}
	return 0
}

// newManager builds an EpochManager configured as `serve` configures it
// with default flags.
func newManager(pr ldp.Params) (*stream.EpochManager, error) {
	return stream.NewEpochManager(stream.Config{Params: pr, Window: 4, History: 16,
		Eta: core.DefaultEta, MinZ: 3, StableAfter: 3})
}

// pipeline is the server's durable path rebuilt from its parts.
type pipeline struct {
	t       tracer
	w       workload
	in      *inputs
	mgr     *stream.EpochManager
	wal     *persist.WAL
	snapDir string
	snaps   []snapMeta
	sends   int
	seals   int
	stars   int
	bytes   int64 // size of the newest snapshot
}

type snapMeta struct {
	path   string
	walSeq uint64
}

// ingest runs one send of the workload's lane: the handler's validation
// (or decode), the WAL append a durable server makes, and the fold.
func (p *pipeline) ingest() error {
	i := p.sends
	p.sends++
	var frame []byte
	var n int64
	var fold func() error
	if p.w.lane == reportLane {
		frame, n = p.in.frames[i%len(p.in.frames)], p.in.frameReports
		if err := p.t.time("validate", n, func() error {
			_, err := ldp.ValidateReportBatchFrame(frame)
			return err
		}); err != nil {
			return err
		}
		fold = func() error { return p.t.time("fold", n, func() error { return p.mgr.AddBatchFrame(frame) }) }
	} else {
		pool := p.in.clean
		if p.mgr.SealedWatermark() >= p.w.attackFrom {
			pool = p.in.attacked
		}
		var err error
		if frame, err = stamp(pool[i%len(pool)], p.mgr.SealedWatermark()); err != nil {
			return err
		}
		n = pool[i%len(pool)].Users
		var pt *ldp.PartialTally
		if err := p.t.time("partial_decode", n, func() (err error) {
			pt, err = ldp.UnmarshalPartial(frame)
			return err
		}); err != nil {
			return err
		}
		fold = func() error { return p.t.time("add_partial", n, func() error { return p.mgr.AddPartial(pt) }) }
	}
	if err := p.t.time("append", n, func() error {
		_, err := p.wal.Append(frame)
		return err
	}); err != nil {
		return err
	}
	return fold()
}

// seal runs the store's seal path: the manager's seal (recovery runs
// inside it, and is re-run alone to split it out), sync, snapshot, and
// truncation through the oldest retained snapshot.
func (p *pipeline) seal() error {
	var est *stream.WindowEstimate
	if err := p.t.time("seal", 0, func() (err error) {
		est, err = p.mgr.Seal()
		return err
	}); err != nil {
		return err
	}
	p.seals++
	pr := p.in.proto.Params()
	if est.Poisoned != nil {
		if err := p.t.time("recover", 0, func() error {
			_, err := core.Recover(est.Poisoned, core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain},
				core.Options{Eta: core.DefaultEta, Targets: est.Targets})
			return err
		}); err != nil {
			return err
		}
	}
	if est.PartialKnowledge {
		p.stars++
	}
	walSeq := p.wal.LastLSN()
	if err := p.t.time("seal_sync", 0, p.wal.Sync); err != nil {
		return err
	}
	var path string
	if err := p.t.time("snapshot", 0, func() (err error) {
		path, err = persist.WriteSnapshot(p.snapDir, walSeq, p.mgr.SnapshotState())
		return err
	}); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.bytes = fi.Size()
	if p.snaps = append(p.snaps, snapMeta{path, walSeq}); len(p.snaps) > persist.DefaultKeepSnapshots {
		if err := os.Remove(p.snaps[0].path); err != nil {
			return err
		}
		p.snaps = p.snaps[1:]
	}
	return p.t.time("truncate", 0, func() error { return p.wal.TruncateThrough(p.snaps[0].walSeq) })
}

// traceLayers replays the workload in-process and returns the per-layer
// metrics, checking the stage sum against the traced run's own live
// measurement.
func traceLayers(cfg runConfig, in *inputs, live liveRun) (_ map[string]metric, err error) {
	w := cfg.w
	pr := in.proto.Params()
	dir := filepath.Join(cfg.workDir, "trace")
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover only costs disk
	p := &pipeline{t: tracer{}, w: w, in: in, snapDir: filepath.Join(dir, "snap")}
	if err := os.MkdirAll(p.snapDir, 0o755); err != nil {
		return nil, err
	}
	// The WAL never syncs by itself: an append's fsync is its own stage.
	if p.wal, err = persist.OpenWAL(filepath.Join(dir, "wal"), persist.WALOptions{SyncEvery: -1}); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, p.wal.Close()) }() // closing twice is harmless
	if p.mgr, err = newManager(pr); err != nil {
		return nil, err
	}

	// The live run's schedule: a first seal so window reads find an
	// epoch, then the rate phase's frames per seal with a read halfway.
	if err := p.seal(); err != nil {
		return nil, err
	}
	perSeal := cfg.framesPerSeal()
	for range traceSeals {
		for k := range perSeal {
			if err := p.ingest(); err != nil {
				return nil, err
			}
			if k == perSeal/2 {
				if err := p.t.time("estimate_window", 0, func() error {
					_, err := p.mgr.EstimateWindow(4)
					return err
				}); err != nil {
					return nil, err
				}
			}
		}
		if err := p.seal(); err != nil {
			return nil, err
		}
	}

	// Replay: leave a tail in the WAL and time persist.Open on it, which
	// is what a reboot pays.
	tail := traceReplayFrames
	if w.lane == partialLane {
		tail = traceReplayPartial
	}
	for range tail {
		if err := p.ingest(); err != nil {
			return nil, err
		}
	}
	if err := p.wal.Close(); err != nil {
		return nil, err
	}
	replayMgr, err := newManager(pr)
	if err != nil {
		return nil, err
	}
	var store *persist.Store
	if err := p.t.time("open", 0, func() (err error) {
		store, err = persist.Open(dir, replayMgr, persist.Options{SyncEvery: -1})
		return err
	}); err != nil {
		return nil, err
	}
	ri := store.Restored()
	p.t["open"].units = ri.ReplayedReports + ri.ReplayedPartialUsers
	if err := store.Close(); err != nil {
		return nil, err
	}

	if err := crossLane(p.t, cfg, in); err != nil {
		return nil, err
	}
	probe, units := in.frames, in.frameReports
	if w.lane == partialLane {
		probe, units = make([][]byte, len(in.clean)), partialUsers
		for i, pt := range in.clean {
			if probe[i], err = stamp(pt, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := fsyncProbe(p.t, filepath.Join(dir, "probe"), probe, units); err != nil {
		return nil, err
	}
	return layerMetrics(p, live), nil
}

// fsyncProbe times the fsync after each append that serve's default
// -fsync-every 1 makes. The frames go to a WAL of their own, which leaves
// the replayed pipeline's seal syncs as a lazily synced WAL makes them.
func fsyncProbe(t tracer, walDir string, frames [][]byte, reports int64) (err error) {
	wal, err := persist.OpenWAL(walDir, persist.WALOptions{SyncEvery: -1})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, wal.Close()) }()
	for _, f := range frames {
		if _, err := wal.Append(f); err != nil {
			return err
		}
		if err := t.time("wal_fsync", reports, wal.Sync); err != nil {
			return err
		}
	}
	return nil
}

// crossLane times the client's encodes, the two halves of a report
// replay (decode, then fold the decoded reports), and the stages of the
// lane the workload does not use, all at the workload's domain, so every
// workload reports both lanes' costs over the same shape.
func crossLane(t tracer, cfg runConfig, in *inputs) error {
	pr := in.proto.Params()
	r := rng.New(cfg.seed ^ 0x7472616365) // a stream apart from the run's inputs
	pop, err := newPopulation(r, pr.Domain)
	if err != nil {
		return err
	}
	col, err := ldp.NewCollector("ldpload", pr.Domain)
	if err != nil {
		return err
	}
	mgr, err := newManager(pr)
	if err != nil {
		return err
	}
	var scratch ldp.PerturbScratch
	for range traceClientBatches {
		counts := pop.trueCounts(r, genuinePerFrame)
		var reps []ldp.Report
		if err := t.time("client_perturb", genuinePerFrame, func() (err error) {
			reps, err = ldp.PerturbAllInto(in.proto, r, counts, &scratch)
			return err
		}); err != nil {
			return err
		}
		var frame []byte
		if err := t.time("client_marshal", genuinePerFrame, func() (err error) {
			frame, err = ldp.MarshalReportBatch(reps)
			return err
		}); err != nil {
			return err
		}
		if err := t.time("client_collect", genuinePerFrame, func() error { return col.AddBatch(reps) }); err != nil {
			return err
		}
		n := int64(len(reps))
		if err := t.time("decode", n, func() (err error) {
			reps, err = ldp.UnmarshalReportBatch(frame)
			return err
		}); err != nil {
			return err
		}
		if err := t.time("fold_decoded", n, func() error { return mgr.AddBatch(reps) }); err != nil {
			return err
		}
		if cfg.w.lane == partialLane {
			if err := t.time("validate", n, func() error {
				_, err := ldp.ValidateReportBatchFrame(frame)
				return err
			}); err != nil {
				return err
			}
			if err := t.time("fold", n, func() error { return mgr.AddBatchFrame(frame) }); err != nil {
				return err
			}
		}
	}
	var partial []byte
	if err := t.time("client_collect", 0, func() (err error) {
		partial, err = col.Flush(0)
		return err
	}); err != nil {
		return err
	}
	if cfg.w.lane == reportLane {
		for range traceClientBatches {
			var pt *ldp.PartialTally
			if err := t.time("partial_decode", 0, func() (err error) {
				pt, err = ldp.UnmarshalPartial(partial)
				return err
			}); err != nil {
				return err
			}
			if err := t.time("add_partial", pt.Users, func() error { return mgr.AddPartial(pt) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMetrics names the per-layer metrics. The stage sum adds the
// stages the live in-memory server runs: the lane's ingest stages per
// report, plus seals and window reads amortized over the reports of the
// traced run's saturate phase.
func layerMetrics(p *pipeline, live liveRun) map[string]metric {
	t := p.t
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put("loadgen.late_p50_ms", percentile(live.rate.late, 50), "ms")
	put("loadgen.late_p90_ms", percentile(live.rate.late, 90), "ms")
	put("serve.queue_depth_p50", percentile(live.depth, 50), "frames")
	put("serve.queue_depth_p90", percentile(live.depth, 90), "frames")
	put("serve.retry_share", share(float64(live.retries), float64(live.ingests)), "ratio")
	put("serve.buf_pool_hit_ratio", live.sat.pool, "ratio")
	put("serve.saturate_reports_per_s", float64(live.sat.reports)/live.sat.elapsed.Seconds(), "reports/s")
	put("serve.ack_p90_ms", percentile(live.rate.ack, 90), "ms")
	put("serve.ack_p99_ms", percentile(live.rate.ack, 99), "ms")
	put("serve.seal_p90_ms", percentile(live.seals.seal, 90), "ms")
	put("serve.estimate_p90_ms", percentile(live.seals.read, 90), "ms")
	put("persist.wal_fsync_ns", t.perCall("wal_fsync"), "ns")
	put("ldp.validate_ns_per_frame", t.perCall("validate"), "ns")
	put("persist.wal_append_ns_per_frame", t.perCall("append"), "ns")
	put("ldp.fold_ns_per_report", t.perUnit("fold"), "ns")
	put("ldp.partial_decode_ns_per_frame", t.perCall("partial_decode"), "ns")
	put("stream.add_partial_ns", t.perCall("add_partial"), "ns")
	put("stream.seal_ns", t.perCall("seal"), "ns")
	put("core.recover_ns", t.perCall("recover"), "ns")
	put("stream.seal_self_ns", share(t.total("seal")-t.total("recover"), float64(p.seals)), "ns")
	put("persist.seal_sync_ns", t.perCall("seal_sync"), "ns")
	put("persist.snapshot_ns", t.perCall("snapshot"), "ns")
	put("persist.snapshot_bytes", float64(p.bytes), "bytes")
	put("persist.truncate_ns", t.perCall("truncate"), "ns")
	put("stream.estimate_window_ns", t.perCall("estimate_window"), "ns")
	put("stream.star_share", share(float64(p.stars), float64(p.seals)), "ratio")
	put("persist.replay_ns_per_report", t.perUnit("open"), "ns")
	put("ldp.decode_ns_per_report", t.perUnit("decode"), "ns")
	put("ldp.fold_decoded_ns_per_report", t.perUnit("fold_decoded"), "ns")
	put("ldp.client_perturb_ns_per_report", t.perUnit("client_perturb"), "ns")
	put("ldp.client_marshal_ns_per_report", t.perUnit("client_marshal"), "ns")
	put("ldp.client_collect_ns_per_report", t.perUnit("client_collect"), "ns")

	ingest := t.perUnit("validate") + t.perUnit("fold")
	if p.w.lane == partialLane {
		ingest = t.perUnit("partial_decode") + t.perUnit("add_partial")
	}
	reports := float64(live.sat.reports)
	sum := ingest + share(t.perCall("seal")*float64(live.sat.seals)+t.perCall("estimate_window")*float64(live.sat.reads), reports)
	put("trace.stage_sum_ns_per_report", sum, "ns")
	put("trace.unaccounted_share", 1-share(sum, live.cpuPerReport()), "ratio")
	return m
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/stream"
)

// The cluster parts (DESIGN.md §7, §9) a server composes around its
// ingest part, each opened by one constructor:
//
//   - the uplink (openUplink) pushes each sealed epoch's tally to the
//     parent over the CRC-framed sealed-tally codec, retrying with
//     backoff until the parent's durably sealed watermark passes the
//     tally's epoch;
//   - the barrier (openBarrier) accepts tallies on POST /v1/tally,
//     dedupes them by (node, epoch), holds an epoch barrier until every
//     expected child has delivered (or the straggler timeout forces a
//     partial seal), and seals the merged counts into its EpochManager —
//     so the served window estimates, recovered history, and LDPRecover*
//     hysteresis run on exactly the union of reports;
//   - the standby (openStandby) tails a root's snapshots and seal-log,
//     and when the root's lease goes stale opens a barrier over the warm
//     state in place.
//
// Because tally merging is exact integer addition and epochs seal in
// clock order, a root's estimates are bit-identical to a single-node
// server fed every report; TestClusterEquivalenceE2E pins that. A
// barrier with an uplink (-role=merger) pushes each epoch it seals
// upward as a single merged tally under its own node id, persisted
// (when durable) before the push, so the at-least-once/dedupe contract
// holds level by level and the top root's estimates stay bit-identical
// at any depth (TestTreeEquivalenceE2E).
//
// Membership is elastic: a leaf started with -join announces itself on
// POST /v1/membership and begins contributing at the epoch boundary the
// root assigns; one stopped with -leave-on-shutdown retires the same
// way, so the barrier stops waiting for it without a straggler timeout.
// Uplinks started with -standby-addr fail over to a promoted standby,
// and their ring re-send makes the switch lose nothing
// (TestClusterElasticFailoverE2E pins all three transitions).

// tallyResponse is the root's answer to a pushed tally.
type tallyResponse struct {
	// Duplicate reports that the tally had already been merged (or its
	// epoch already sealed) and this submission changed nothing.
	Duplicate bool `json:"duplicate"`
	// SealedThrough is the root's sealed-epoch watermark — persisted
	// when the root is durable — up to which frontends may prune their
	// unacked tallies.
	SealedThrough int `json:"sealed_through"`
}

// announceResponse is the root's answer to a join/leave announcement.
type announceResponse struct {
	// Effective is the epoch boundary the change takes effect at: the
	// first epoch a joiner contributes, the first a leaver does not.
	Effective int `json:"effective_epoch"`
	// SealedThrough is the root's sealed watermark, so a joiner can
	// align its epoch clock in the same round trip.
	SealedThrough int `json:"sealed_through"`
}

// defaultPushInterval is how often a frontend re-pushes tallies the
// root has accepted but not yet sealed past (tests shrink it).
const defaultPushInterval = 500 * time.Millisecond

// maxPushBackoff caps the exponential backoff after push failures.
const maxPushBackoff = 5 * time.Second

// shutdownFlushTimeout bounds the pusher's final delivery attempt: a
// durable frontend re-sends on its next boot anyway, so an unreachable
// root must not hang shutdown.
const shutdownFlushTimeout = 5 * time.Second

// failoverAfter is how many consecutive failed delivery passes switch
// the pusher to the next candidate root (the -standby-addr).
const failoverAfter = 2

// tallyPusher is the frontend's delivery side: a FIFO of sealed tallies
// retried in order until the root's sealed watermark covers them.
// Delivery is at-least-once by construction — a tally is retained
// through crashes by the frontend's durable epoch ring and re-enqueued
// on boot — and the root's dedupe makes every re-send a no-op. The
// queue is bounded to the ring's retention: a tally that outlives its
// ring epoch would not survive a restart either, so during a root
// outage longer than -history epochs the oldest pending tallies are
// dropped (counted, logged) rather than growing memory without limit.
//
// urls lists the candidate roots (the root, then the standby, if any);
// after failoverAfter consecutive failed passes the pusher rotates to
// the next candidate and keeps going — dedupe makes it harmless to
// push to a root that already has everything.
type tallyPusher struct {
	nodeID       string
	urls         []string
	client       *http.Client
	interval     time.Duration
	maxPending   int           // 0: unbounded
	flushTimeout time.Duration // bound on the shutdown flush (tests shrink it)

	mu         sync.Mutex
	pending    []stream.Epoch // unacked sealed epochs, ascending
	dropped    int64          // tallies evicted past maxPending
	rootSeen   int            // highest sealed watermark any answer carried
	lastErr    error          // most recent push failure, for stats/logs
	active     int            // index into urls currently delivered to
	failStreak int            // consecutive failed passes on the active url
	failovers  int64          // times the active url rotated

	// backoffRng drives the decorrelated retry jitter. Seeded from the
	// node id so each pusher's schedule is deterministic per node yet
	// distinct across siblings; used only from the loop goroutine.
	backoffRng *rand.Rand

	runCtx    context.Context // canceled at close: in-flight steady-state pushes abort
	runCancel context.CancelFunc
	kick      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

func newTallyPusher(nodeID string, urls []string, interval time.Duration, maxPending int) *tallyPusher {
	if interval <= 0 {
		interval = defaultPushInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	seed := fnv.New64a()
	seed.Write([]byte(nodeID))
	p := &tallyPusher{
		nodeID:       nodeID,
		urls:         urls,
		client:       &http.Client{Timeout: 10 * time.Second},
		interval:     interval,
		maxPending:   maxPending,
		flushTimeout: shutdownFlushTimeout,
		//ldplint:allow nowallclock push-retry jitter seeded from the node-ID hash; never in the replay path
		backoffRng: rand.New(rand.NewSource(int64(seed.Sum64()))),
		runCtx:     ctx,
		runCancel:  cancel,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// url returns the candidate root currently delivered to.
func (p *tallyPusher) url() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.urls[p.active]
}

// enqueue queues one sealed epoch as this node's tally and wakes the
// loop, evicting the oldest pending tallies beyond the retention bound.
func (p *tallyPusher) enqueue(ep stream.Epoch) {
	p.mu.Lock()
	p.pending = append(p.pending, ep)
	var evicted int
	if p.maxPending > 0 && len(p.pending) > p.maxPending {
		evicted = len(p.pending) - p.maxPending
		p.pending = append([]stream.Epoch(nil), p.pending[evicted:]...)
		p.dropped += int64(evicted)
	}
	p.mu.Unlock()
	if evicted > 0 {
		fmt.Printf("tally queue full: dropped %d oldest undelivered epochs (root unreachable beyond -history retention)\n", evicted)
	}
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// pendingCount returns how many tallies await the root's watermark.
func (p *tallyPusher) pendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// droppedCount returns how many undelivered tallies retention evicted.
func (p *tallyPusher) droppedCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// failoverCount returns how many times delivery rotated roots.
func (p *tallyPusher) failoverCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failovers
}

// loop pushes pending tallies, re-checking every interval (the root
// seals an epoch only once every frontend delivered, so "accepted but
// not sealed" is the steady state between clock ticks) and backing off
// with decorrelated jitter when the root is unreachable. Every wait
// selects on the stop channel: shutdown never sits out a backoff or an
// in-flight retry against a dead root.
func (p *tallyPusher) loop() {
	defer p.wg.Done()
	backoff := p.interval
	for {
		select {
		case <-p.done:
			p.finalFlush()
			return
		case <-p.kick:
		//ldplint:allow nowallclock push-loop retry pacing; estimates never depend on it
		case <-time.After(backoff):
		}
		if p.pushAll(p.runCtx) {
			backoff = p.interval
		} else {
			backoff = p.nextBackoff(backoff)
		}
	}
}

// nextBackoff picks the retry delay after a failed pass: uniform in
// [interval, 3*prev), capped at maxPushBackoff — decorrelated jitter
// rather than plain doubling. When a root restart leaves every child
// with a failed pass at the same instant, synchronized exponential
// schedules would keep the whole tier retrying in lockstep bursts;
// jittered schedules diverge after the first round, and the per-node
// seed keeps each node's sequence reproducible for debugging. Only the
// loop goroutine calls this.
func (p *tallyPusher) nextBackoff(prev time.Duration) time.Duration {
	span := 3*prev - p.interval
	next := p.interval + time.Duration(p.backoffRng.Float64()*float64(span))
	if next > maxPushBackoff {
		next = maxPushBackoff
	}
	return next
}

// finalFlush is the shutdown delivery attempt, bounded as a whole by
// shutdownFlushTimeout: the context caps every request in flight, and
// the pass pacing — "accepted but not sealed yet" must wait for the
// other frontends' tallies, not hammer the root in a hot loop — aborts
// the moment the deadline passes instead of sleeping through it.
func (p *tallyPusher) finalFlush() {
	ctx, cancel := context.WithTimeout(context.Background(), p.flushTimeout)
	defer cancel()
	for {
		p.pushAll(ctx)
		if p.pendingCount() == 0 || ctx.Err() != nil {
			return
		}
		select {
		//ldplint:allow nowallclock shutdown flush retry pacing
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

// pushAll attempts one delivery pass over the pending queue, oldest
// first, pruning everything the root's watermark covers. It reports
// whether every attempted push got an answer from the root, and rotates
// to the next candidate root after failoverAfter consecutive failed
// passes.
func (p *tallyPusher) pushAll(ctx context.Context) bool {
	p.mu.Lock()
	batch := append([]stream.Epoch(nil), p.pending...)
	p.mu.Unlock()
	ok := true
	watermark := -1
	for _, ep := range batch {
		if ep.Seq < watermark {
			continue // already covered by an earlier answer this pass
		}
		resp, err := p.pushOne(ctx, ep)
		if err != nil {
			p.mu.Lock()
			p.lastErr = err
			p.mu.Unlock()
			ok = false
			break // preserve ordering; retry the whole tail later
		}
		watermark = resp.SealedThrough
	}
	if watermark >= 0 {
		p.mu.Lock()
		kept := p.pending[:0]
		for _, ep := range p.pending {
			if ep.Seq >= watermark {
				kept = append(kept, ep)
			}
		}
		p.pending = append([]stream.Epoch(nil), kept...)
		if watermark > p.rootSeen {
			p.rootSeen = watermark
		}
		if ok {
			p.lastErr = nil
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	if ok {
		p.failStreak = 0
	} else if len(batch) > 0 && ctx.Err() == nil {
		if p.failStreak++; p.failStreak >= failoverAfter && len(p.urls) > 1 {
			p.active = (p.active + 1) % len(p.urls)
			p.failStreak = 0
			p.failovers++
			fmt.Printf("frontend %q: tally delivery failing, switching to %s\n", p.nodeID, p.urls[p.active])
		}
	}
	p.mu.Unlock()
	return ok
}

// rootWatermark returns the highest sealed-epoch watermark the root has
// reported. The frontend fast-forwards its epoch clock to it before
// sealing, so a node that fell behind the barrier (outage past the
// straggler timeout, in-memory restart) rejoins the shared clock
// instead of issuing stale indices forever.
func (p *tallyPusher) rootWatermark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rootSeen
}

// noteWatermark folds a watermark learnt outside the push path (a join
// announcement's answer) into the clock-resync state.
func (p *tallyPusher) noteWatermark(w int) {
	p.mu.Lock()
	if w > p.rootSeen {
		p.rootSeen = w
	}
	p.mu.Unlock()
}

// pushOne POSTs sealed epoch ep to the active root as this node's
// tally frame.
func (p *tallyPusher) pushOne(ctx context.Context, ep stream.Epoch) (*tallyResponse, error) {
	frame, err := ldp.MarshalTally(&ldp.Tally{NodeID: p.nodeID, Epoch: ep.Seq, Counts: ep.Counts, Total: ep.Total})
	if err != nil {
		return nil, err
	}
	var tr tallyResponse
	if err := p.post(ctx, "/v1/tally", frame, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// announce sends a join/leave announcement to the active root. epoch is
// the requested boundary (leave: the first epoch this node will not
// contribute); the answer carries the boundary the root assigned.
func (p *tallyPusher) announce(ctx context.Context, kind ldp.AnnounceKind, epoch int) (*announceResponse, error) {
	frame, err := ldp.MarshalAnnounce(&ldp.Announce{NodeID: p.nodeID, Kind: kind, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	var ar announceResponse
	if err := p.post(ctx, "/v1/membership", frame, &ar); err != nil {
		return nil, err
	}
	p.noteWatermark(ar.SealedThrough)
	return &ar, nil
}

// post delivers one frame to the active root and decodes the JSON
// answer into out.
func (p *tallyPusher) post(ctx context.Context, path string, frame []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url()+path, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("root answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding root answer: %v", err)
	}
	return nil
}

// close stops the loop after a bounded final flush. In-flight
// steady-state pushes are aborted immediately — the flush re-sends
// anything they would have delivered.
func (p *tallyPusher) close() error {
	p.runCancel()
	close(p.done)
	p.wg.Wait()
	if n := p.pendingCount(); n > 0 {
		p.mu.Lock()
		err := p.lastErr
		p.mu.Unlock()
		return fmt.Errorf("%d sealed tallies undelivered at shutdown (last error: %v); "+
			"a durable frontend re-sends them on next boot", n, err)
	}
	return nil
}

// openUplink opens the uplink part: a pusher toward the parent (then its
// standby), bounded by the sealed-epoch ring's retention — a tally older
// than the ring would not survive a restart either. Every sealed epoch
// is enqueued: under a barrier after the seal is persisted, so the
// parent never acks an epoch this node could forget; otherwise after
// the clock resync below.
func (s *streamServer) openUplink(cfg streamServerConfig) error {
	urls := []string{cfg.RootAddr}
	if cfg.StandbyAddr != "" {
		urls = append(urls, cfg.StandbyAddr)
	}
	s.pusher = newTallyPusher(cfg.NodeID, urls, cfg.PushInterval, s.mgr.Config().History)
	// At-least-once across restarts: re-send every retained sealed epoch
	// (the restored ring, on a durable node); the parent dedupes what it
	// has already merged.
	for _, ep := range s.mgr.Epochs() {
		s.pusher.enqueue(ep)
	}
	if s.root != nil {
		// The barrier's clock is driven by its children, never resynced
		// to the parent — skipping ahead would discard child tallies
		// still en route.
		s.root.onSealed = s.pushSealed
		return nil
	}
	// The clock resync first: if the parent has sealed past this node's
	// counter — it was down past the straggler timeout, or restarted
	// without durable state — the next epoch rejoins the shared clock at
	// the parent's watermark instead of issuing stale indices the parent
	// would dedupe forever (the skipped indices have no epoch from this
	// node, which is the truth).
	base := s.sealFn
	s.sealFn = func() (*stream.WindowEstimate, error) {
		s.mgr.AdvanceEpochTo(s.pusher.rootWatermark())
		est, err := base()
		if err == nil {
			s.pushSealed(est.Seq)
		}
		return est, err
	}
	if cfg.Join {
		if err := s.join(cfg); err != nil {
			return err
		}
	}
	s.leaveOnShutdown = cfg.LeaveOnShutdown
	return nil
}

// join announces the node at boot, synchronously: it must know its
// assigned epoch boundary before its first seal, or its early tallies
// would be rejected as from a non-member. The root answers its sealed
// watermark in the same round trip, so the joiner's clock aligns to the
// boundary it was given. Join is idempotent on the root — a
// re-announcing member just gets its standing boundary back.
func (s *streamServer) join(cfg streamServerConfig) error {
	jt := cfg.JoinTimeout
	if jt <= 0 {
		jt = 30 * time.Second
	}
	//ldplint:allow nowallclock join deadline bounds startup, not any deterministic path
	deadline := time.Now().Add(jt)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ar, err := s.pusher.announce(ctx, ldp.AnnounceJoin, 0)
		cancel()
		if err == nil {
			s.mgr.AdvanceEpochTo(ar.Effective)
			fmt.Printf("frontend %q joined: contributing from epoch %d\n", cfg.NodeID, ar.Effective)
			return nil
		}
		//ldplint:allow nowallclock join deadline bounds startup, not any deterministic path
		if time.Now().After(deadline) {
			return fmt.Errorf("joining the cluster via %s: %w", s.pusher.url(), err)
		}
		//ldplint:allow nowallclock join retry backoff during startup
		time.Sleep(200 * time.Millisecond)
	}
}

// pushSealed enqueues sealed epoch seq for the parent, if the ring still
// holds it as its newest.
func (s *streamServer) pushSealed(seq int) {
	if eps := s.mgr.Epochs(); len(eps) > 0 && eps[len(eps)-1].Seq == seq {
		s.pusher.enqueue(eps[len(eps)-1])
	}
}

// openBarrier opens the barrier part. In memory it is a merger over mgr
// expecting the -nodes set. With a data directory a root boots the way a
// standby promotes: the lease first — a directory another root (or a
// promoted standby) is heartbeating must not be opened, two writers
// would fork the snapshot history — then the merger from the newest
// snapshot and the seal-log's membership (-nodes only while the log is
// empty: joins and leaves acked before a restart must survive it), then
// the snapshot store and seal-log every merged seal persists through.
// tailer is a standby's warm one; nil restores into mgr.
func openBarrier(cfg streamServerConfig, owner string, mgr *stream.EpochManager,
	tailer *persist.StandbyTailer, fatal func(error)) (*rootMerge, error) {
	if cfg.DataDir == "" {
		merger, err := stream.NewSealedMerger(mgr, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		return newRootMerge(merger, nil, nil, cfg.TallyTimeout, fatal), nil
	}
	dataErr := func(err error) error {
		return fmt.Errorf("-role=%s with -data-dir %s: %w", cfg.Role, cfg.DataDir, err)
	}
	if tailer == nil {
		var err error
		tailer, err = persist.NewStandbyTailer(cfg.DataDir, func() (*stream.EpochManager, error) { return mgr, nil })
		if err != nil {
			return nil, dataErr(err)
		}
	}
	lease, err := persist.AcquireLease(cfg.DataDir, owner, cfg.PromoteAfter)
	if err != nil {
		return nil, dataErr(err)
	}
	merger, err := tailer.Promote(cfg.Nodes)
	var (
		snaps *persist.SnapshotStore
		slog  *persist.SealLog
	)
	if err == nil {
		snaps, err = persist.AttachSnapshotStore(cfg.DataDir, merger.Manager())
	}
	if err == nil {
		slog, err = persist.OpenSealLog(cfg.DataDir)
	}
	if err != nil {
		return nil, dataErr(errors.Join(err, lease.Release()))
	}
	rm := newRootMerge(merger, snaps, slog, cfg.TallyTimeout, fatal)
	rm.startLease(lease, leaseHeartbeat(cfg.PromoteAfter))
	return rm, nil
}

// rootMerge is the root's barrier driver around a SealedMerger: it
// seals complete epochs as they fill, arms the straggler timer while a
// barrier is partially filled, persists each merged seal (snapshot,
// then seal-log record) before advancing the advertised watermark,
// journals membership changes before acking them, heartbeats the data
// directory's lease, and fail-stops the server when persistence breaks
// (the PR 4 durability policy).
type rootMerge struct {
	merger  *stream.SealedMerger
	snaps   *persist.SnapshotStore // nil when the root is in-memory
	slog    *persist.SealLog       // nil when the root is in-memory
	timeout time.Duration          // 0: wait for stragglers forever
	fatal   func(error)

	// onSealed, when set, is invoked under r.mu for every epoch this
	// barrier seals, after the seal has been persisted and the watermark
	// advanced. An interior merger (-role=merger) uses it to enqueue the
	// just-merged epoch for delivery to its own parent — persist before
	// push, so the parent never acks a tally this node could forget.
	onSealed func(epoch int)

	mu        sync.Mutex
	timer     *time.Timer
	persisted int // durably sealed watermark (== merger's when snaps == nil)

	lease     *persist.Lease
	leaseStop chan struct{}
	leaseWG   sync.WaitGroup
}

func newRootMerge(merger *stream.SealedMerger, snaps *persist.SnapshotStore,
	slog *persist.SealLog, timeout time.Duration, fatal func(error)) *rootMerge {
	return &rootMerge{merger: merger, snaps: snaps, slog: slog, timeout: timeout, fatal: fatal,
		persisted: merger.SealedThrough()}
}

// startLease begins heartbeating the held lease. A failed heartbeat
// means this root was superseded (a standby promoted over it) — the
// only safe move is to fail-stop before merging anything more.
func (r *rootMerge) startLease(l *persist.Lease, interval time.Duration) {
	r.lease = l
	r.leaseStop = make(chan struct{})
	r.leaseWG.Add(1)
	go func() {
		defer r.leaseWG.Done()
		//ldplint:allow nowallclock lease heartbeat is wall-clock liveness by design
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.leaseStop:
				return
			case <-t.C:
				if err := l.Refresh(); err != nil {
					r.fatal(fmt.Errorf("root lease heartbeat: %w", err))
					return
				}
			}
		}
	}()
}

// rootSealError marks a server-side seal/persist failure surfacing
// through the tally path — a 500-class fault the server also
// fail-stops on, as opposed to a client-visible tally rejection.
type rootSealError struct{ err error }

func (e rootSealError) Error() string { return e.err.Error() }
func (e rootSealError) Unwrap() error { return e.err }

// onTally folds one pushed tally's validated frame, sealing through the
// barrier when the tally completes it and arming the straggler timer
// when it starts a new partial epoch.
func (r *rootMerge) onTally(f ldp.CountFrame) (tallyResponse, error) {
	res, err := r.merger.MergeFrame(f)
	if err != nil {
		return tallyResponse{}, err
	}
	if res.Ready {
		if err := r.seal(-1); err != nil {
			r.fatal(err)
			return tallyResponse{}, rootSealError{err}
		}
	} else if !res.Duplicate {
		r.mu.Lock()
		r.armTimerLocked()
		r.mu.Unlock()
	}
	return tallyResponse{Duplicate: res.Duplicate, SealedThrough: r.watermark()}, nil
}

// onAnnounce applies one membership announcement. The resulting
// membership state is journaled to the seal-log *before* the change is
// acked — a joiner that got its effective epoch must still be expected
// after a root restart. A leave that removes the barrier's last
// straggler seals through it.
func (r *rootMerge) onAnnounce(a *ldp.Announce) (announceResponse, error) {
	var (
		eff   int
		ready bool
		err   error
	)
	switch a.Kind {
	case ldp.AnnounceJoin:
		eff, err = r.merger.Join(a.NodeID)
	case ldp.AnnounceLeave:
		eff, ready, err = r.merger.Leave(a.NodeID, a.Epoch)
	default:
		err = fmt.Errorf("unknown announce kind %v", a.Kind)
	}
	if err != nil {
		return announceResponse{}, err
	}
	if r.slog != nil {
		members, sched := r.merger.Membership()
		if err := r.slog.Append(persist.SealRecord{
			Kind: persist.SealRecordMember, Epoch: eff,
			Node: a.NodeID, Join: a.Kind == ldp.AnnounceJoin,
			Members: members, Sched: sched,
		}); err != nil {
			err = fmt.Errorf("journaling membership change for %q: %w", a.NodeID, err)
			r.fatal(err)
			return announceResponse{}, rootSealError{err}
		}
	}
	if ready {
		if err := r.seal(-1); err != nil {
			r.fatal(err)
			return announceResponse{}, rootSealError{err}
		}
	} else {
		r.mu.Lock()
		r.armTimerLocked()
		r.mu.Unlock()
	}
	fmt.Printf("membership: %s %q effective at epoch %d\n", a.Kind, a.NodeID, eff)
	return announceResponse{Effective: eff, SealedThrough: r.watermark()}, nil
}

// seal drains the barrier: every complete epoch seals, and with
// forceEpoch >= 0 the barrier epoch additionally seals partial — but
// only while it still *is* epoch forceEpoch and tallies are actually
// waiting. The guard is what makes a stale force harmless: a straggler
// timer (or POST /v1/seal) that fired for epoch N but lost the race to
// N's completing tally must not force-seal an empty N+1 — that would
// advance the barrier past tallies still en route and turn an entire
// epoch's re-sends into stale duplicates. Each merged seal is persisted
// (snapshot, then seal-log record) before the watermark moves, so
// frontends never prune a tally the root could forget.
func (r *rootMerge) seal(forceEpoch int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	for {
		est, info, err := r.merger.TrySeal()
		if err != nil {
			return err
		}
		if est == nil {
			if forceEpoch != r.merger.SealedThrough() || !r.merger.BarrierPending() {
				break
			}
			forceEpoch = -1
			if est, info, err = r.merger.SealPartial(); err != nil {
				return err
			}
		}
		if r.snaps != nil {
			if err := r.snaps.Persist(); err != nil {
				return fmt.Errorf("persisting merged epoch %d: %w", info.Epoch, err)
			}
		}
		if r.slog != nil {
			members, sched := r.merger.Membership()
			if err := r.slog.Append(persist.SealRecord{
				Kind: persist.SealRecordSeal, Epoch: info.Epoch,
				Nodes: info.Nodes, Missing: info.Missing,
				Members: members, Sched: sched,
			}); err != nil {
				return fmt.Errorf("journaling merged epoch %d: %w", info.Epoch, err)
			}
		}
		r.persisted = r.merger.SealedThrough()
		if r.onSealed != nil {
			r.onSealed(info.Epoch)
		}
		if len(info.Missing) == 0 {
			fmt.Printf("merged epoch %d: %d nodes / %d reports, window estimate seq %d\n",
				info.Epoch, len(info.Nodes), info.Total, est.Seq)
		} else {
			fmt.Printf("merged epoch %d PARTIAL: merged %v, missing %v, %d reports\n",
				info.Epoch, info.Nodes, info.Missing, info.Total)
		}
	}
	r.armTimerLocked()
	return nil
}

// armTimerLocked starts the straggler timer when a barrier is partially
// filled and no timer runs; it disarms when nothing is pending. The
// callback captures the epoch it was armed for, so a timer that fires
// after its epoch sealed cannot force-seal the next one. The caller
// holds r.mu.
func (r *rootMerge) armTimerLocked() {
	if !r.merger.BarrierPending() {
		if r.timer != nil {
			r.timer.Stop()
			r.timer = nil
		}
		return
	}
	if r.timeout <= 0 || r.timer != nil {
		return
	}
	armedFor := r.merger.SealedThrough()
	//ldplint:allow nowallclock straggler timeout arms the barrier's partial-epoch seal; a liveness bound, not a fold input
	r.timer = time.AfterFunc(r.timeout, func() {
		r.mu.Lock()
		r.timer = nil
		r.mu.Unlock()
		if err := r.seal(armedFor); err != nil {
			r.fatal(err)
		}
	})
}

// watermark is the sealed-epoch count frontends may prune against: the
// persisted one when the root is durable, the in-memory one otherwise.
func (r *rootMerge) watermark() int {
	if r.snaps == nil {
		return r.merger.SealedThrough()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persisted
}

// errNothingToSeal answers a forced seal on a root whose barrier is
// empty and that has never sealed: there is no epoch to close and no
// estimate to serve. It is an ordinary client-visible condition, not
// the fail-stop kind of seal failure.
var errNothingToSeal = errors.New("no tallies at the barrier and no merged epoch sealed yet")

// forceSeal is the root's sealFn: POST /v1/seal force-closes the
// barrier epoch if tallies are waiting there, then serves the merged
// estimate. With nothing pending it never invents an empty epoch —
// root epochs close on the frontends' clock, and advancing the barrier
// past tallies still en route would discard them as stale.
func (r *rootMerge) forceSeal() (*stream.WindowEstimate, error) {
	if err := r.seal(r.merger.SealedThrough()); err != nil {
		return nil, err
	}
	if est := r.merger.Manager().Latest(); est != nil {
		return est, nil
	}
	return nil, errNothingToSeal
}

// stop disarms the straggler timer, stops the lease heartbeat and
// releases the lease, and closes the seal-log and snapshot store
// (shutdown path).
func (r *rootMerge) stop() error {
	var errs []error
	if r.leaseStop != nil {
		close(r.leaseStop)
		r.leaseWG.Wait()
		errs = append(errs, r.lease.Release())
	}
	r.mu.Lock()
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	if r.slog != nil {
		errs = append(errs, r.slog.Close())
	}
	if r.snaps != nil {
		errs = append(errs, r.snaps.Close())
	}
	r.mu.Unlock()
	return errors.Join(errs...)
}

// errStandbyNotPromoted answers write-path requests on a standby that
// has not taken over yet — the root is still the cluster's merge front.
var errStandbyNotPromoted = errors.New("this standby has not been promoted; the root is still serving")

// standbyControl is the standby part: it tails the root's data
// directory to keep a warm manager, health-checks the root, and when the
// root has been unreachable past -promote-after AND its lease has gone
// stale, promotes — opening a barrier over the warm state and swapping
// it into the server, which from then on merges tallies like a root.
type standbyControl struct {
	cfg    streamServerConfig // DataDir, RootAddr, Nodes (fallback), PromoteAfter, StandbyPoll, TallyTimeout
	owner  string
	tailer *persist.StandbyTailer
	client *http.Client
	srv    *streamServer

	root atomic.Pointer[rootMerge] // non-nil once promoted

	stopc chan struct{}
	wg    sync.WaitGroup
}

// openStandby opens the standby part. Its data directory is the root's —
// tailed read-only until promotion, never a report WAL — and it seals
// nothing until it has been promoted.
func (s *streamServer) openStandby(cfg streamServerConfig, owner string) error {
	tailer, err := persist.NewStandbyTailer(cfg.DataDir, func() (*stream.EpochManager, error) {
		return stream.NewEpochManager(cfg.Stream)
	})
	if err != nil {
		return err
	}
	s.standby = &standbyControl{cfg: cfg, owner: owner, tailer: tailer, client: &http.Client{}, srv: s}
	s.sealFn = func() (*stream.WindowEstimate, error) { return nil, errStandbyNotPromoted }
	s.standby.start()
	return nil
}

// start launches the tail/health/promotion loop.
func (c *standbyControl) start() {
	c.stopc = make(chan struct{})
	c.wg.Add(1)
	go c.loop()
}

// loop is the standby's watch cycle. It exits once promoted (the
// rootMerge takes over) or when the server shuts down.
func (c *standbyControl) loop() {
	defer c.wg.Done()
	//ldplint:allow nowallclock standby health watch is wall-clock liveness by design
	lastHealthy := time.Now()
	//ldplint:allow nowallclock standby poll ticker is wall-clock liveness by design
	t := time.NewTicker(c.cfg.StandbyPoll)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
		}
		if _, err := c.tailer.Poll(); err != nil {
			fmt.Printf("standby %q: tailing snapshots: %v\n", c.owner, err)
		}
		if c.rootHealthy() {
			//ldplint:allow nowallclock standby health watch is wall-clock liveness by design
			lastHealthy = time.Now()
			continue
		}
		//ldplint:allow nowallclock promotion delay is a wall-clock liveness bound
		if time.Since(lastHealthy) < c.cfg.PromoteAfter {
			continue
		}
		if err := c.promote(); err != nil {
			// Typically the lease is still fresh — the root is cut off
			// from us but alive, or another standby won. Keep watching.
			fmt.Printf("standby %q: promotion blocked: %v\n", c.owner, err)
			continue
		}
		return
	}
}

// rootHealthy probes the root's stats endpoint.
func (c *standbyControl) rootHealthy() bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.StandbyPoll)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.RootAddr+"/v1/stats", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// promote performs the takeover: openBarrier over the warm state — the
// lease first, refusing while the old root's heartbeat is fresh (the
// split-brain guard) — then the swap that turns this server into the
// root. Uplinks find it via -standby-addr; their ring re-send replays
// anything the old root accepted but never durably sealed.
func (c *standbyControl) promote() error {
	rm, err := openBarrier(c.cfg, c.owner, nil, c.tailer, c.srv.reportFatal)
	if err != nil {
		return err
	}
	c.root.Store(rm)
	c.srv.sealMu.Lock()
	c.srv.sealFn = rm.forceSeal
	c.srv.sealMu.Unlock()
	fmt.Printf("standby %q PROMOTED: serving as root at watermark %d, members %v\n",
		c.owner, rm.merger.SealedThrough(), rm.merger.Nodes())
	return nil
}

// stop ends the watch loop (a promoted standby's rootMerge is stopped
// by the server like any root's).
func (c *standbyControl) stop() {
	if c.stopc != nil {
		close(c.stopc)
		c.wg.Wait()
	}
}

// leaseHeartbeat derives the heartbeat period from the staleness
// threshold: several beats must fit comfortably inside it.
func leaseHeartbeat(staleAfter time.Duration) time.Duration {
	hb := staleAfter / 4
	if hb < 50*time.Millisecond {
		hb = 50 * time.Millisecond
	}
	return hb
}

// currentRoot returns the barrier driver this server is merging with:
// the barrier part's, the promoted one on a standby that took over, nil
// otherwise.
func (s *streamServer) currentRoot() *rootMerge {
	if s.root != nil {
		return s.root
	}
	if s.standby != nil {
		return s.standby.root.Load()
	}
	return nil
}

// barrierFor returns the barrier a POST /v1/tally or /v1/membership
// merges into; without one it answers 503 on an unpromoted standby (the
// root is still the merge front) and 404 elsewhere.
func (s *streamServer) barrierFor(w http.ResponseWriter) *rootMerge {
	root := s.currentRoot()
	switch {
	case root != nil:
	case s.standby != nil:
		httpError(w, http.StatusServiceUnavailable, "%v", errStandbyNotPromoted)
	default:
		httpError(w, http.StatusNotFound, "this node has no epoch barrier; tallies and membership changes go to a -role=root or -role=merger server")
	}
	return root
}

// handleTally is the barrier's ingest endpoint: one CRC-framed sealed
// tally per POST, validated in place and merged from the wire bytes.
func (s *streamServer) handleTally(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a sealed tally frame")
		return
	}
	root := s.barrierFor(w)
	if root == nil {
		return
	}
	body, ok := s.readBody(w, r, "tally")
	if !ok {
		return
	}
	defer s.putBuf(body)
	tally, err := ldp.ValidateTallyFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding tally: %v", err)
		return
	}
	resp, err := root.onTally(tally)
	if err != nil {
		// Seal/persist failures are server faults (and fail-stop the
		// server); only tally validation is the client's problem.
		var sealErr rootSealError
		if errors.As(err, &sealErr) {
			httpError(w, http.StatusInternalServerError, "sealing merged epoch: %v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "merging tally from %q: %v", tally.NodeID, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMembership is the barrier's join/leave endpoint: one CRC-framed
// announcement per POST, answered with the effective epoch boundary.
func (s *streamServer) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a membership announce frame")
		return
	}
	root := s.barrierFor(w)
	if root == nil {
		return
	}
	body, ok := s.readBody(w, r, "announce")
	if !ok {
		return
	}
	defer s.putBuf(body)
	a, err := ldp.UnmarshalAnnounce(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding announce: %v", err)
		return
	}
	resp, err := root.onAnnounce(a)
	if err != nil {
		var sealErr rootSealError
		if errors.As(err, &sealErr) {
			httpError(w, http.StatusInternalServerError, "applying membership change: %v", err)
			return
		}
		// Membership conflicts — a stranger leaving, the last member
		// leaving — are the client's state being wrong, not a bad frame.
		httpError(w, http.StatusConflict, "membership change for %q: %v", a.NodeID, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterStatsResponse is the cluster parts' stats section.
type clusterStatsResponse struct {
	Role string `json:"role"`
	// Uplink fields.
	NodeID         string `json:"node_id,omitempty"`
	RootAddr       string `json:"root_addr,omitempty"`
	PendingTallies int    `json:"pending_tallies,omitempty"`
	DroppedTallies int64  `json:"dropped_tallies,omitempty"`
	Failovers      int64  `json:"failovers,omitempty"`
	// Barrier fields (also set on a promoted standby).
	Nodes         []string              `json:"nodes,omitempty"`
	SealedThrough int                   `json:"sealed_through,omitempty"`
	Duplicates    int64                 `json:"duplicates,omitempty"`
	Merged        []mergedEpochResponse `json:"merged,omitempty"`
	// Standby fields.
	Promoted    bool `json:"promoted,omitempty"`
	SnapshotSeq int  `json:"snapshot_seq,omitempty"`
}

// mergedEpochResponse is one sealed epoch's partial-epoch accounting.
type mergedEpochResponse struct {
	Epoch      int              `json:"epoch"`
	Nodes      []string         `json:"nodes,omitempty"`
	Missing    []string         `json:"missing,omitempty"`
	NodeTotals map[string]int64 `json:"node_totals,omitempty"`
	Total      int64            `json:"total"`
	Duplicates int              `json:"duplicates,omitempty"`
}

// clusterStats builds the parts' section of /v1/stats, nil on a single
// node: the uplink's delivery queue, the barrier's merge accounting (a
// promoted standby's included), and an unpromoted standby's tail.
func (s *streamServer) clusterStats() *clusterStatsResponse {
	if s.parts == (serverParts{}) {
		return nil
	}
	cs := &clusterStatsResponse{Role: s.parts.name()}
	if p := s.pusher; p != nil {
		cs.NodeID, cs.RootAddr = p.nodeID, p.url()
		cs.PendingTallies, cs.DroppedTallies, cs.Failovers = p.pendingCount(), p.droppedCount(), p.failoverCount()
	}
	root := s.currentRoot()
	if s.standby != nil {
		cs.Promoted = root != nil
		if root == nil {
			cs.SnapshotSeq, _ = s.standby.tailer.SnapshotSeq()
		}
	}
	if root == nil {
		return cs
	}
	cs.Nodes = root.merger.Nodes()
	cs.SealedThrough = root.watermark()
	cs.Duplicates = root.merger.Duplicates()
	for _, m := range root.merger.Merged() {
		cs.Merged = append(cs.Merged, mergedEpochResponse{
			Epoch: m.Epoch, Nodes: m.Nodes, Missing: m.Missing,
			NodeTotals: m.NodeTotals, Total: m.Total, Duplicates: m.Duplicates,
		})
	}
	return cs
}

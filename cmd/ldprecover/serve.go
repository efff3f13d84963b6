package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ldprecover"
)

// The serve subcommand runs the epoch-streamed recovery service: a
// long-lived collector that ingests codec-encoded report batches over
// HTTP, seals epochs on a timer (or on demand), and serves per-window
// poisoned vs. recovered frequency estimates.
//
// Endpoints:
//
//	POST /v1/reports   body = MarshalReportBatch frame; enqueued for
//	                   ingest. 202 on accept, 429 when the queue is full.
//	POST /v1/partial   body = MarshalPartial frame: an edge collector's
//	                   pre-aggregated partial tally (DESIGN.md §8),
//	                   folded synchronously. 202 on accept, 409 when
//	                   the epoch hint is behind the sealed watermark.
//	POST /v1/seal      close the current epoch now; returns the window
//	                   estimate (also what the -epoch ticker calls).
//	GET  /v1/estimate  latest sealed window estimate; ?window=k merges
//	                   the newest k sealed epochs on demand instead.
//	GET  /v1/stats     ingest/queue/epoch counters for monitoring.
//
// Ingest is decoupled from request handling by a bounded queue draining
// into EpochManager.AddBatch from -ingesters goroutines, so a slow
// aggregation moment backpressures clients with 429 instead of
// accumulating unbounded memory. Shutdown (SIGINT/SIGTERM) stops the
// listener, drains the queue, seals the final epoch, and prints it.
//
// With -data-dir the service is durable (DESIGN.md §6): batches are
// written to a CRC-framed WAL before they are aggregated, every seal
// snapshots the manager's cross-epoch state atomically and truncates the
// log, and a restart resumes from snapshot + WAL tail with window
// estimates bit-identical to an uninterrupted run — including the
// recovered-baseline history and target-tracker hysteresis that drive
// the LDPRecover* upgrade, which an in-memory server forgets.
//
// With -role the server joins a cluster (DESIGN.md §7):
// -role=frontend ingests reports as above but pushes every sealed
// epoch's tally to -root-addr instead of identifying targets itself;
// -role=root accepts those tallies on POST /v1/tally, merges them
// behind an epoch barrier over the -nodes set (with a -tally-timeout
// straggler policy), and serves estimates bit-identical to a single
// node that saw every report. -role=merger is both at once (DESIGN.md
// §9): it runs the root's barrier over its -nodes children and pushes
// each epoch it seals upward to -root-addr as one merged tally under
// its -node-id, composing into an aggregation tree of any depth.
func runServe(args []string) error {
	fs := newFlagSet("serve")
	var (
		addr     = fs.String("addr", "127.0.0.1:8347", "listen address")
		protoN   = fs.String("protocol", "oue", "protocol: grr, oue, olh")
		d        = fs.Int("d", 128, "domain size")
		eps      = fs.Float64("epsilon", 0.5, "privacy budget")
		epoch    = fs.Duration("epoch", time.Minute, "epoch length (0: seal only via POST /v1/seal)")
		window   = fs.Int("window", 4, "sealed epochs per serving estimate")
		history  = fs.Int("history", 16, "sealed epochs retained (ring + outlier history)")
		eta      = fs.Float64("eta", ldprecover.DefaultEta, "assumed malicious/genuine ratio")
		targetK  = fs.Int("targets", 0, "max auto-identified targets per epoch (0: min(10, d), negative: disable)")
		minZ     = fs.Float64("minz", 3, "z-score threshold for flagging a target")
		stable   = fs.Int("stable", 3, "consecutive epochs before LDPRecover* engages")
		queueLen = fs.Int("queue", 256, "ingest queue bound (batches)")
		ingest   = fs.Int("ingesters", 2, "ingest worker goroutines")
		maxBody  = fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
		dataDir  = fs.String("data-dir", "", "durable state directory: WAL + per-seal snapshots (empty: in-memory only)")
		fsyncN   = fs.Int("fsync-every", 1, "fsync the WAL every n-th batch (negative: only at epoch seals)")
		walSeg   = fs.Int64("wal-segment", ldprecover.DefaultWALSegmentBytes, "WAL segment rotation size in bytes")
		role     = fs.String("role", "", "cluster role: frontend (ingest + push sealed tallies), root (merge tallies), merger (merge children, push the merged tally upward), or standby (tail the root, promote on failure); empty: single node")
		rootAddr = fs.String("root-addr", "", "frontend/merger/standby: the parent (root) node's base URL, e.g. http://10.0.0.1:8347")
		nodeID   = fs.String("node-id", "", "frontend/merger: unique node id (the parent dedupes tallies by it); standby: lease owner name")
		nodesF   = fs.String("nodes", "", "root/merger: comma-separated expected child node ids (the epoch barrier set); standby: promotion fallback when the seal-log is empty")
		tallyTO  = fs.Duration("tally-timeout", 30*time.Second, "root/merger/standby: straggler timeout before a partial epoch seal (0: wait forever)")
		sbAddr   = fs.String("standby-addr", "", "frontend/merger: the parent's standby base URL; tally delivery fails over to it when the parent stops answering")
		joinF    = fs.Bool("join", false, "frontend: announce this node to the root at boot and start contributing at the assigned epoch boundary")
		leaveF   = fs.Bool("leave-on-shutdown", false, "frontend: announce departure at shutdown so the root's barrier stops expecting this node")
		promoteA = fs.Duration("promote-after", 10*time.Second, "standby: promote once the root has been unreachable this long and its lease is stale")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	nodes, err := validateClusterFlags(*role, *rootAddr, *nodeID, *nodesF, *sbAddr, *dataDir, *tallyTO, *promoteA, explicit)
	if err != nil {
		return err
	}
	// Validate what would otherwise pass through silently or surface as
	// an internal config error without the flag names.
	if *epoch < 0 {
		return fmt.Errorf("-epoch %s is negative; use 0 to seal only via POST /v1/seal", *epoch)
	}
	if *window < 1 {
		return fmt.Errorf("-window %d is below 1 sealed epoch", *window)
	}
	if *history < *window {
		return fmt.Errorf("-history %d is below -window %d: the retention ring must cover the serving window",
			*history, *window)
	}
	if *walSeg < 1 {
		return fmt.Errorf("-wal-segment %d bytes is below 1", *walSeg)
	}
	proto, err := buildProtocol(*protoN, *d, *eps)
	if err != nil {
		return err
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream: ldprecover.StreamConfig{
			Params:      proto.Params(),
			Window:      *window,
			History:     *history,
			Eta:         *eta,
			TargetK:     *targetK,
			MinZ:        *minZ,
			StableAfter: *stable,
		},
		QueueLen:        *queueLen,
		Ingesters:       *ingest,
		MaxBody:         *maxBody,
		DataDir:         *dataDir,
		SyncEvery:       *fsyncN,
		SegmentBytes:    *walSeg,
		Role:            *role,
		NodeID:          *nodeID,
		RootAddr:        *rootAddr,
		Nodes:           nodes,
		TallyTimeout:    *tallyTO,
		StandbyAddr:     *sbAddr,
		Join:            *joinF,
		LeaveOnShutdown: *leaveF,
		PromoteAfter:    *promoteA,
	})
	if err != nil {
		return err
	}
	if srv.store != nil {
		ri := srv.store.Restored()
		fmt.Printf("durable state in %s: restored %d sealed epochs, replayed %d batches / %d reports, %d partials / %d users\n",
			*dataDir, ri.SnapshotSeq, ri.ReplayedBatches, ri.ReplayedReports,
			ri.ReplayedPartials, ri.ReplayedPartialUsers)
	}
	if srv.root != nil && srv.root.snaps != nil {
		fmt.Printf("root state in %s: restored %d merged epochs\n",
			*dataDir, srv.root.snaps.Restored().SnapshotSeq)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.close()
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *epoch > 0 && srv.root == nil && srv.standby == nil {
		// Roots and standbys have no epoch ticker: their epochs close on
		// the frontends' shared clock, via tally barriers and the
		// straggler timeout.
		//ldplint:allow nowallclock the epoch ticker IS the cluster's shared epoch clock
		ticker = time.NewTicker(*epoch)
		tick = ticker.C
		defer ticker.Stop()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	switch *role {
	case roleFrontend:
		fmt.Printf("frontend %q serving %s (d=%d, epsilon=%g) on http://%s  epoch=%s, pushing sealed tallies to %s\n",
			*nodeID, proto.Name(), *d, *eps, ln.Addr(), *epoch, *rootAddr)
	case roleRoot:
		fmt.Printf("root serving %s (d=%d, epsilon=%g) on http://%s  merging %d frontends %v, straggler timeout %s\n",
			proto.Name(), *d, *eps, ln.Addr(), len(nodes), nodes, *tallyTO)
	case roleMerger:
		fmt.Printf("merger %q on http://%s  merging %d children %v (straggler timeout %s), pushing merged tallies to %s\n",
			*nodeID, ln.Addr(), len(nodes), nodes, *tallyTO, *rootAddr)
	case roleStandby:
		fmt.Printf("standby on http://%s  tailing %s, watching root %s, promoting after %s unreachable\n",
			ln.Addr(), *dataDir, *rootAddr, *promoteA)
	default:
		fmt.Printf("serving %s (d=%d, epsilon=%g) on http://%s  epoch=%s window=%d\n",
			proto.Name(), *d, *eps, ln.Addr(), *epoch, *window)
	}

	return serveLoop(hs, srv, tick, sigc, errc)
}

// Cluster role names for -role.
const (
	roleFrontend = "frontend"
	roleRoot     = "root"
	roleMerger   = "merger"
	roleStandby  = "standby"
)

// validateClusterFlags rejects inconsistent cluster configurations up
// front, naming the flags (the PR 4 validation style): every error a
// misconfigured node would otherwise hit mid-flight — a frontend with
// no root, a root with no barrier set, role-specific flags on the wrong
// role — fails at startup instead. It returns the parsed -nodes set.
func validateClusterFlags(role, rootAddr, nodeID, nodesF, standbyAddr, dataDir string,
	tallyTO, promoteAfter time.Duration, explicit map[string]bool) ([]string, error) {
	switch role {
	case "", roleFrontend, roleRoot, roleMerger, roleStandby:
	default:
		return nil, fmt.Errorf("-role %q is not one of frontend, root, merger, standby (or empty for single-node)", role)
	}
	checkURL := func(flagName, v string) error {
		if u, err := url.Parse(v); err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("-%s %q is not an http(s) base URL like http://10.0.0.1:8347", flagName, v)
		}
		return nil
	}
	if role != roleFrontend && role != roleMerger && role != roleStandby {
		if explicit["root-addr"] {
			return nil, fmt.Errorf("-root-addr is for nodes that talk to a parent (-role=frontend and -role=merger push tallies there, -role=standby health-checks it); not for -role=%q", role)
		}
		if explicit["node-id"] {
			return nil, fmt.Errorf("-node-id names a frontend or merger (the parent dedupes by it) or a standby's lease owner; not for -role=%q", role)
		}
	}
	if role != roleRoot && role != roleMerger && role != roleStandby {
		if explicit["nodes"] {
			return nil, fmt.Errorf("-nodes is the epoch barrier set; it needs -role=root or -role=merger (or -role=standby as promotion fallback)")
		}
		if explicit["tally-timeout"] {
			return nil, fmt.Errorf("-tally-timeout is the straggler policy; it needs -role=root or -role=merger (or -role=standby for after promotion)")
		}
	}
	if role != roleFrontend && role != roleMerger && explicit["standby-addr"] {
		return nil, fmt.Errorf("-standby-addr is the upward failover target; it needs -role=frontend or -role=merger")
	}
	if role != roleFrontend {
		for _, f := range []string{"join", "leave-on-shutdown"} {
			if explicit[f] {
				// A merger cannot join/leave its parent elastically: its
				// node id is a fixed entry in the parent's -nodes barrier.
				return nil, fmt.Errorf("-%s is a frontend flag; it needs -role=frontend", f)
			}
		}
	}
	if role != roleStandby && explicit["promote-after"] {
		return nil, fmt.Errorf("-promote-after is the standby's failover threshold; it needs -role=standby")
	}
	parseNodes := func() ([]string, error) {
		var nodes []string
		seen := make(map[string]bool)
		for _, n := range strings.Split(nodesF, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				return nil, fmt.Errorf("-nodes %q lists an empty node id", nodesF)
			}
			if seen[n] {
				return nil, fmt.Errorf("-nodes lists %q twice; node ids must be unique", n)
			}
			seen[n] = true
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	switch role {
	case roleFrontend:
		// Target identification runs on the root, over the merged view; a
		// partition-local z-score would silently drift from it. Reject the
		// flags rather than silently overriding them.
		for _, f := range []string{"targets", "minz", "stable"} {
			if explicit[f] {
				return nil, fmt.Errorf("-%s configures target identification, which -role=frontend delegates to the root; set it there", f)
			}
		}
		if rootAddr == "" {
			return nil, fmt.Errorf("-role=frontend requires -root-addr (the root node's base URL)")
		}
		if err := checkURL("root-addr", rootAddr); err != nil {
			return nil, err
		}
		if standbyAddr != "" {
			if err := checkURL("standby-addr", standbyAddr); err != nil {
				return nil, err
			}
		}
		if nodeID == "" {
			return nil, fmt.Errorf("-role=frontend requires -node-id (unique per frontend; the root dedupes tallies by it)")
		}
		if len(nodeID) > 256 {
			return nil, fmt.Errorf("-node-id of %d bytes exceeds the tally codec's 256-byte cap", len(nodeID))
		}
		return nil, nil
	case roleRoot:
		if explicit["epoch"] {
			return nil, fmt.Errorf("-epoch is the frontends' shared clock; a root's epochs close on tally barriers and -tally-timeout")
		}
		if nodesF == "" {
			return nil, fmt.Errorf("-role=root requires -nodes (comma-separated frontend node ids forming the epoch barrier)")
		}
		if tallyTO < 0 {
			return nil, fmt.Errorf("-tally-timeout %s is negative; use 0 to wait for stragglers forever", tallyTO)
		}
		return parseNodes()
	case roleMerger:
		// Like a frontend toward its parent: target identification runs
		// at the tree's true root, over the full union.
		for _, f := range []string{"targets", "minz", "stable"} {
			if explicit[f] {
				return nil, fmt.Errorf("-%s configures target identification, which -role=merger delegates to the tree's root; set it there", f)
			}
		}
		if explicit["epoch"] {
			return nil, fmt.Errorf("-epoch is the frontends' shared clock; a merger's epochs close on its children's tally barriers and -tally-timeout")
		}
		if rootAddr == "" {
			return nil, fmt.Errorf("-role=merger requires -root-addr (the parent node's base URL)")
		}
		if err := checkURL("root-addr", rootAddr); err != nil {
			return nil, err
		}
		if standbyAddr != "" {
			if err := checkURL("standby-addr", standbyAddr); err != nil {
				return nil, err
			}
		}
		if nodeID == "" {
			return nil, fmt.Errorf("-role=merger requires -node-id (unique per merger; the parent dedupes tallies by it)")
		}
		if len(nodeID) > 256 {
			return nil, fmt.Errorf("-node-id of %d bytes exceeds the tally codec's 256-byte cap", len(nodeID))
		}
		if nodesF == "" {
			return nil, fmt.Errorf("-role=merger requires -nodes (comma-separated child node ids forming the epoch barrier)")
		}
		if tallyTO < 0 {
			return nil, fmt.Errorf("-tally-timeout %s is negative; use 0 to wait for stragglers forever", tallyTO)
		}
		return parseNodes()
	case roleStandby:
		if explicit["epoch"] {
			return nil, fmt.Errorf("-epoch is the frontends' shared clock; a standby's epochs close on tally barriers after promotion")
		}
		if dataDir == "" {
			return nil, fmt.Errorf("-role=standby requires -data-dir (the root's data directory, shared or replicated, to tail snapshots and the seal-log from)")
		}
		if rootAddr == "" {
			return nil, fmt.Errorf("-role=standby requires -root-addr (the root to health-check for failover)")
		}
		if err := checkURL("root-addr", rootAddr); err != nil {
			return nil, err
		}
		if tallyTO < 0 {
			return nil, fmt.Errorf("-tally-timeout %s is negative; use 0 to wait for stragglers forever", tallyTO)
		}
		if promoteAfter <= 0 {
			return nil, fmt.Errorf("-promote-after %s must be positive: it is both the failover threshold and the lease staleness bound", promoteAfter)
		}
		if nodesF == "" {
			return nil, nil
		}
		return parseNodes()
	}
	return nil, nil
}

// serveLoop runs the epoch ticker / shutdown select around a listening
// server. Every exit path — signal, seal failure, listener failure —
// stops the listener, drains the ingest queue into the manager, and
// closes the durable store, so none of them leaks the Serve goroutine or
// strands queued batches.
func serveLoop(hs *http.Server, srv *streamServer, tick <-chan time.Time, sigc <-chan os.Signal, errc <-chan error) error {
	for {
		select {
		case <-tick:
			est, err := srv.seal()
			if err != nil {
				// A failing seal is fatal, but not a reason to leak: shut
				// the listener down and fold every queued batch before
				// returning (an early return here used to strand the
				// listener, the Serve goroutine and the queue).
				return errors.Join(err, shutdownAndDrain(hs, srv, errc, false))
			}
			fmt.Printf("sealed epoch %d: window of %d epochs / %d reports, partial-knowledge=%v\n",
				est.Seq, est.Epochs, est.Total, est.PartialKnowledge)
		case err := <-srv.fatalc:
			// A handler hit a fatal error (failed POST /v1/seal): same
			// fail-stop as a failed ticker seal.
			return errors.Join(err, shutdownAndDrain(hs, srv, errc, false))
		case sig := <-sigc:
			fmt.Printf("%v: draining\n", sig)
			return shutdownAndDrain(hs, srv, errc, true)
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return drainAndClose(srv, true)
			}
			// The listener died under us; the queue may still hold
			// accepted batches — fold and persist them before failing.
			return errors.Join(err, drainAndClose(srv, false))
		}
	}
}

// shutdownAndDrain stops accepting requests, waits for the Serve
// goroutine to return, then drains the queue, seals the final epoch and
// closes the durable store.
func shutdownAndDrain(hs *http.Server, srv *streamServer, errc <-chan error, report bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := hs.Shutdown(ctx)
	cancel()
	<-errc // Serve has returned (http.ErrServerClosed after Shutdown)
	return errors.Join(err, drainAndClose(srv, report))
}

// drainAndClose folds every queued batch, seals the final epoch, and
// closes the durable store.
func drainAndClose(srv *streamServer, report bool) error {
	final, err := srv.drain()
	if err == nil && report && final != nil {
		fmt.Printf("final epoch %d sealed: window of %d epochs / %d reports\n",
			final.Seq, final.Epochs, final.Total)
	}
	return errors.Join(err, srv.close())
}

// streamServerConfig wires the HTTP layer around an EpochManager.
type streamServerConfig struct {
	Stream    ldprecover.StreamConfig
	QueueLen  int
	Ingesters int
	MaxBody   int64
	// DataDir enables durable mode; empty keeps all state in memory.
	// Frontends and single nodes keep a report-level WAL + per-seal
	// snapshots; a root keeps per-seal snapshots of the merged state
	// only (its inputs are re-sent tallies, not report batches).
	DataDir      string
	SyncEvery    int
	SegmentBytes int64
	// Role selects cluster mode: "" (single node), "frontend" (push
	// sealed tallies to RootAddr as NodeID), "root" (merge tallies
	// from the Nodes barrier set, forcing partial seals after
	// TallyTimeout), "merger" (both: merge the Nodes children, push
	// each merged epoch upward to RootAddr as NodeID), or "standby"
	// (tail the root's DataDir, promote when the root goes dark past
	// PromoteAfter).
	Role         string
	NodeID       string
	RootAddr     string
	Nodes        []string
	TallyTimeout time.Duration
	// PushInterval is the frontend's re-push cadence; zero selects
	// defaultPushInterval (tests shrink it).
	PushInterval time.Duration
	// StandbyAddr is the frontend's failover delivery target: after
	// consecutive failed pushes to RootAddr the pusher rotates here.
	StandbyAddr string
	// Join makes a frontend announce itself to the root at boot and
	// align its epoch clock to the assigned boundary; LeaveOnShutdown
	// announces departure after the final flush.
	Join            bool
	LeaveOnShutdown bool
	// JoinTimeout bounds the boot-time join retry loop; zero selects
	// 30s (tests shrink it).
	JoinTimeout time.Duration
	// PromoteAfter is the standby's failover threshold and, on both
	// root and standby, the lease staleness bound; zero selects 10s.
	PromoteAfter time.Duration
	// StandbyPoll is the standby's snapshot-tail/health-check cadence;
	// zero derives it from PromoteAfter.
	StandbyPoll time.Duration
}

// streamServer owns the manager, the bounded ingest queue and its
// drain workers, and (in durable mode) the persistence store. All
// handler methods are safe for concurrent use.
type streamServer struct {
	mgr   *ldprecover.EpochManager
	store *ldprecover.DurableStore // nil in memory-only mode
	// queue carries validated POST /v1/reports bodies, each a report
	// batch frame held in a pooled buffer: the worker folds it in place
	// — durable mode appends it to the WAL verbatim, counting never
	// materializes a []Report — and returns it to the pool.
	queue   chan []byte
	wg      sync.WaitGroup
	maxBody int64

	// pusher is set on frontends and mergers: sealed epochs enqueue here
	// and are delivered to the parent at-least-once. root is set on
	// roots and mergers: the barrier driver behind POST /v1/tally.
	// standby is set on standbys: the tail/health/promotion machinery,
	// which installs a rootMerge of its own when it takes over. All nil
	// on a single node.
	pusher  *tallyPusher
	root    *rootMerge
	standby *standbyControl
	// leaveOnShutdown: the frontend announces its departure after the
	// final flush, so the root's barrier stops expecting it.
	leaveOnShutdown bool
	// sealOnDrain: a shutdown drain seals the final epoch — except on a
	// root or standby, whose epochs close on the frontends' clock;
	// sealing there would advance the barrier past tallies still en
	// route.
	sealOnDrain bool

	// sealMu serializes seals so ticker, /v1/seal and drain cannot
	// interleave epoch boundaries.
	sealMu sync.Mutex
	// sealFn is what seal() runs under sealMu — the store's persisting
	// seal in durable mode, the manager's otherwise. Tests substitute a
	// failing one to drive the error paths.
	sealFn func() (*ldprecover.WindowEstimate, error)

	// foldFn is what an ingest worker runs on each dequeued frame:
	// ingest. Tests wrap it to park the worker.
	foldFn func(frame []byte) error

	// fatalc carries a handler-observed fatal error (a failed seal) to
	// serveLoop, so a durable server whose snapshots stop persisting
	// fail-stops whether the seal came from the ticker or POST /v1/seal.
	fatalc chan error

	// drainMu protects the queue against a send racing its close:
	// enqueuers hold it shared around the send, drain takes it exclusive
	// to flip draining before closing the channel.
	drainMu  sync.RWMutex
	draining bool

	accepted atomic.Int64 // batches accepted into the queue
	rejected atomic.Int64 // batches turned away with 429

	// partial-tally lane counters (POST /v1/partial).
	partialsAccepted atomic.Int64
	partialsStale    atomic.Int64 // rejected with 409 ErrStalePartial

	// bufPool recycles request-body buffers between /v1/reports
	// handlers and the ingest workers that release them after the fold.
	// poolGets counts handler checkouts, poolMisses the checkouts the
	// pool had to allocate for; hits = gets - misses.
	bufPool    sync.Pool
	poolGets   atomic.Int64
	poolMisses atomic.Int64
}

// getBuf checks an empty body buffer out of the pool.
func (s *streamServer) getBuf() []byte {
	s.poolGets.Add(1)
	return *(s.bufPool.Get().(*[]byte))
}

// putBuf returns a body buffer (however grown) to the pool. MaxBytes
// bounds every buffer's capacity at maxBody, so retention is bounded by
// pool size, not by the largest request ever seen times the queue.
func (s *streamServer) putBuf(b []byte) {
	b = b[:0]
	s.bufPool.Put(&b)
}

// readAllInto reads r to EOF into buf, growing it as needed, and
// returns the filled slice — io.ReadAll against pooled capacity.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func newStreamServer(cfg streamServerConfig) (*streamServer, error) {
	if cfg.QueueLen < 1 {
		return nil, fmt.Errorf("queue bound %d < 1", cfg.QueueLen)
	}
	if cfg.Ingesters < 1 {
		return nil, fmt.Errorf("ingester count %d < 1", cfg.Ingesters)
	}
	if cfg.MaxBody < 64 {
		return nil, fmt.Errorf("max body %d bytes is below a single report frame", cfg.MaxBody)
	}
	switch cfg.Role {
	case "", roleFrontend, roleRoot, roleMerger, roleStandby:
	default:
		return nil, fmt.Errorf("unknown cluster role %q", cfg.Role)
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = 10 * time.Second
	}
	if cfg.StandbyPoll <= 0 {
		cfg.StandbyPoll = cfg.PromoteAfter / 4
		if cfg.StandbyPoll > 500*time.Millisecond {
			cfg.StandbyPoll = 500 * time.Millisecond
		}
		if cfg.StandbyPoll < 10*time.Millisecond {
			cfg.StandbyPoll = 10 * time.Millisecond
		}
	}
	if cfg.Role == roleFrontend || cfg.Role == roleMerger {
		// Frontends and interior mergers never identify targets: each
		// sees only its subtree's slice of the population, and a
		// partition-local z-score would drift from the merged view.
		// Detection runs at the tree's root, over the full union.
		cfg.Stream.TargetK = -1
	}
	mgr, err := ldprecover.NewEpochManager(cfg.Stream)
	if err != nil {
		return nil, err
	}
	s := &streamServer{
		mgr:         mgr,
		queue:       make(chan []byte, cfg.QueueLen),
		maxBody:     cfg.MaxBody,
		fatalc:      make(chan error, 1),
		sealOnDrain: cfg.Role != roleRoot && cfg.Role != roleMerger && cfg.Role != roleStandby,
	}
	s.foldFn = s.ingest
	s.bufPool.New = func() any {
		s.poolMisses.Add(1)
		b := make([]byte, 0, 64<<10)
		return &b
	}
	switch {
	case cfg.Role == roleRoot, cfg.Role == roleMerger:
		var (
			snaps *ldprecover.SnapshotStore
			slog  *ldprecover.SealLog
			lease *ldprecover.Lease
		)
		if cfg.DataDir != "" {
			// The lease first: a directory whose lease another root (or a
			// promoted standby) is heartbeating must not be opened — two
			// writers would fork the snapshot history. A merger owns its
			// lease under its node id: one data directory per tree node.
			owner := "root"
			if cfg.Role == roleMerger {
				owner = cfg.NodeID
			}
			lease, err = ldprecover.AcquireLease(cfg.DataDir, owner, cfg.PromoteAfter)
			if err != nil {
				return nil, fmt.Errorf("-role=%s with -data-dir %s: %w", cfg.Role, cfg.DataDir, err)
			}
			// Restore before the merger exists: the barrier resumes at
			// the restored sealed-epoch watermark.
			snaps, err = ldprecover.OpenSnapshotStore(cfg.DataDir, mgr, 0)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("-role=%s with -data-dir %s: %w", cfg.Role, cfg.DataDir, err), lease.Release())
			}
			if slog, err = ldprecover.OpenSealLog(cfg.DataDir); err != nil {
				return nil, errors.Join(err, lease.Release())
			}
		}
		merger, err := ldprecover.NewSealedMerger(mgr, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		if slog != nil {
			// The journaled membership supersedes -nodes: joins and leaves
			// acked before the restart must survive it.
			if members, sched, ok := slog.Membership(); ok {
				if err := merger.SetMembership(members, sched); err != nil {
					return nil, errors.Join(fmt.Errorf("restoring seal-log membership: %w", err), lease.Release())
				}
				fmt.Printf("%s membership restored from seal-log: %v\n", cfg.Role, members)
			}
		}
		s.root = newRootMerge(merger, snaps, slog, cfg.TallyTimeout, s.reportFatal)
		if lease != nil {
			s.root.startLease(lease, leaseHeartbeat(cfg.PromoteAfter))
		}
		s.sealFn = s.root.forceSeal
		if cfg.Role == roleMerger {
			// The upward half: every epoch this barrier seals is delivered
			// to the parent as one merged tally under this merger's node
			// id, at-least-once, after it has been persisted (the onSealed
			// hook runs past the snapshot/seal-log writes) — so the parent
			// never acks an epoch this node could forget. The queue bound
			// is the ring's retention, as on a frontend.
			urls := []string{cfg.RootAddr}
			if cfg.StandbyAddr != "" {
				urls = append(urls, cfg.StandbyAddr)
			}
			s.pusher = newTallyPusher(cfg.NodeID, urls, cfg.PushInterval, mgr.Config().History)
			nodeID := cfg.NodeID
			s.root.onSealed = func(epoch int) {
				if eps := mgr.Epochs(); len(eps) > 0 {
					last := eps[len(eps)-1]
					if last.Seq == epoch {
						s.pusher.enqueue(&ldprecover.Tally{
							NodeID: nodeID, Epoch: last.Seq, Counts: last.Counts, Total: last.Total,
						})
					}
				}
			}
			// At-least-once across restarts: re-send every retained merged
			// epoch (the restored ring, on a durable merger); the parent
			// dedupes what it has already merged. The merger's epoch clock
			// is driven by its children, never resynced to the parent —
			// skipping ahead would discard child tallies still en route.
			for _, ep := range mgr.Epochs() {
				s.pusher.enqueue(&ldprecover.Tally{
					NodeID: nodeID, Epoch: ep.Seq, Counts: ep.Counts, Total: ep.Total,
				})
			}
		}
	case cfg.Role == roleStandby:
		// Before cfg.DataDir: the standby's data dir is the *root's* —
		// tailed read-only until promotion, never a report WAL.
		streamCfg := cfg.Stream
		tailer, err := ldprecover.NewStandbyTailer(cfg.DataDir, func() (*ldprecover.EpochManager, error) {
			return ldprecover.NewEpochManager(streamCfg)
		})
		if err != nil {
			return nil, err
		}
		owner := cfg.NodeID
		if owner == "" {
			owner = "standby"
		}
		s.standby = &standbyControl{
			tailer:       tailer,
			dataDir:      cfg.DataDir,
			rootAddr:     cfg.RootAddr,
			owner:        owner,
			fallback:     cfg.Nodes,
			promoteAfter: cfg.PromoteAfter,
			pollEvery:    cfg.StandbyPoll,
			tallyTimeout: cfg.TallyTimeout,
			client:       &http.Client{},
			srv:          s,
		}
		s.sealFn = func() (*ldprecover.WindowEstimate, error) { return nil, errStandbyNotPromoted }
		s.standby.start()
	case cfg.DataDir != "":
		s.store, err = ldprecover.OpenDurableStore(cfg.DataDir, mgr, ldprecover.DurableOptions{
			SegmentBytes: cfg.SegmentBytes,
			SyncEvery:    cfg.SyncEvery,
		})
		if err != nil {
			return nil, err
		}
		s.sealFn = s.store.Seal
	default:
		s.sealFn = mgr.Seal
	}
	if cfg.Role == roleFrontend {
		// The delivery queue's bound is the sealed-epoch ring's retention:
		// a tally older than the ring would not survive a restart either.
		urls := []string{cfg.RootAddr}
		if cfg.StandbyAddr != "" {
			urls = append(urls, cfg.StandbyAddr)
		}
		s.leaveOnShutdown = cfg.LeaveOnShutdown
		s.pusher = newTallyPusher(cfg.NodeID, urls, cfg.PushInterval, mgr.Config().History)
		// Every seal also enqueues the sealed epoch's tally for delivery.
		// The clock resync first: if the root has sealed past this node's
		// counter — it was down past the straggler timeout, or restarted
		// without durable state — the next epoch rejoins the shared clock
		// at the root's watermark instead of issuing stale indices the
		// root would dedupe forever (the skipped indices have no epoch
		// from this node, which is the truth).
		base := s.sealFn
		nodeID := cfg.NodeID
		s.sealFn = func() (*ldprecover.WindowEstimate, error) {
			s.mgr.AdvanceEpochTo(s.pusher.rootWatermark())
			est, err := base()
			if err != nil {
				return est, err
			}
			if eps := mgr.Epochs(); len(eps) > 0 {
				last := eps[len(eps)-1]
				s.pusher.enqueue(&ldprecover.Tally{
					NodeID: nodeID, Epoch: last.Seq, Counts: last.Counts, Total: last.Total,
				})
			}
			return est, nil
		}
		// At-least-once across restarts: re-send every retained sealed
		// epoch (the restored ring, on a durable frontend); the root
		// dedupes what it has already merged.
		for _, ep := range mgr.Epochs() {
			s.pusher.enqueue(&ldprecover.Tally{
				NodeID: nodeID, Epoch: ep.Seq, Counts: ep.Counts, Total: ep.Total,
			})
		}
		if cfg.Join {
			// Announce at boot, synchronously: the node must know its
			// assigned epoch boundary before its first seal, or its early
			// tallies would be rejected as from a non-member. The root
			// answers its sealed watermark in the same round trip, so the
			// joiner's clock aligns to the boundary it was given. Join is
			// idempotent on the root — a re-announcing member just gets
			// its standing boundary back.
			jt := cfg.JoinTimeout
			if jt <= 0 {
				jt = 30 * time.Second
			}
			//ldplint:allow nowallclock join deadline bounds startup, not any deterministic path
			deadline := time.Now().Add(jt)
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				ar, err := s.pusher.announce(ctx, ldprecover.AnnounceJoin, 0)
				cancel()
				if err == nil {
					mgr.AdvanceEpochTo(ar.Effective)
					fmt.Printf("frontend %q joined: contributing from epoch %d\n", nodeID, ar.Effective)
					break
				}
				//ldplint:allow nowallclock join deadline bounds startup, not any deterministic path
				if time.Now().After(deadline) {
					errs := errors.Join(fmt.Errorf("joining the cluster via %s: %w", s.pusher.url(), err), s.pusher.close())
					if s.store != nil {
						errs = errors.Join(errs, s.store.Close())
					}
					return nil, errs
				}
				//ldplint:allow nowallclock join retry backoff during startup
				time.Sleep(200 * time.Millisecond)
			}
		}
	}
	for i := 0; i < cfg.Ingesters; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for frame := range s.queue {
				// The fold only fails on inputs the handler's validation
				// cannot admit, and a WAL append fails only when the
				// log can no longer be written — either way the server
				// cannot keep its promises, so crash rather than drop
				// reports silently.
				if err := s.foldFn(frame); err != nil {
					panic(err)
				}
				// Neither the WAL nor the counting fold retains the
				// frame, so the buffer can serve the next request.
				s.putBuf(frame)
			}
		}()
	}
	return s, nil
}

// ingest folds one dequeued report batch frame — through the WAL first
// in durable mode, so a batch is never aggregated without being logged.
// The wire bytes are appended verbatim and counted in place; no
// []Report ever exists.
func (s *streamServer) ingest(frame []byte) error {
	if s.store != nil {
		return s.store.AppendBatchFrame(frame)
	}
	return s.mgr.AddBatchFrame(frame)
}

// handler routes the versioned API.
func (s *streamServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/reports", s.handleReports)
	mux.HandleFunc("/v1/partial", s.handlePartial)
	mux.HandleFunc("/v1/tally", s.handleTally)
	mux.HandleFunc("/v1/membership", s.handleMembership)
	mux.HandleFunc("/v1/seal", s.handleSeal)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// manager returns the EpochManager reads should serve from: a standby
// serves the promoted root's manager once it took over, the warm tailed
// one before that (so /v1/estimate answers from the last snapshot even
// pre-promotion), and every other role its own.
func (s *streamServer) manager() *ldprecover.EpochManager {
	if s.standby != nil {
		if rm := s.standby.root.Load(); rm != nil {
			return rm.merger.Manager()
		}
		if m := s.standby.tailer.Manager(); m != nil {
			return m
		}
	}
	return s.mgr
}

// reportFatal hands a handler- or timer-observed fatal error to
// serveLoop, which fail-stops the server.
func (s *streamServer) reportFatal(err error) {
	select {
	case s.fatalc <- err:
	default:
	}
}

// seal closes the current epoch under the seal lock (persisting it in
// durable mode).
func (s *streamServer) seal() (*ldprecover.WindowEstimate, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return s.sealFn()
}

// drain closes the ingest queue, waits for the workers to fold every
// queued batch, and seals the final epoch. A root skips the seal (nil
// estimate): its epochs close on the frontends' shared clock, and
// sealing at shutdown would advance the barrier past tallies still en
// route, turning their re-sends into stale duplicates.
func (s *streamServer) drain() (*ldprecover.WindowEstimate, error) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return nil, errors.New("already draining")
	}
	s.draining = true
	s.drainMu.Unlock()
	close(s.queue)
	s.wg.Wait()
	if !s.sealOnDrain {
		return nil, nil
	}
	return s.seal()
}

// close releases the role-specific machinery: the frontend's pusher
// (after a bounded final flush, then the leave announcement if
// configured), the root's lease, seal-log and snapshot store, the
// standby's watch loop, the durable store.
func (s *streamServer) close() error {
	var errs []error
	if s.pusher != nil {
		// The flush first — a leave boundary at or past the last sealed
		// epoch only holds if that epoch's tally got delivered.
		errs = append(errs, s.pusher.close())
		if s.leaveOnShutdown {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			from := s.mgr.Stats().Epochs
			if ar, err := s.pusher.announce(ctx, ldprecover.AnnounceLeave, from); err != nil {
				// Not fatal to the departing node: the root's straggler
				// timeout retires it from the barrier eventually.
				fmt.Printf("frontend %q leave announcement failed (the root keeps expecting it until its straggler timeout): %v\n",
					s.pusher.nodeID, err)
			} else {
				fmt.Printf("frontend %q left: not expected from epoch %d\n", s.pusher.nodeID, ar.Effective)
			}
			cancel()
		}
	}
	if s.root != nil {
		errs = append(errs, s.root.stop())
	}
	if s.standby != nil {
		s.standby.stop()
		if rm := s.standby.root.Load(); rm != nil {
			errs = append(errs, rm.stop())
		}
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	return errors.Join(errs...)
}

// httpError writes a plain-text error status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ingestResponse acknowledges an accepted batch.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	// QueueDepth is the queue occupancy after the enqueue, a congestion
	// signal clients can use to pace themselves before hitting 429s.
	QueueDepth int `json:"queue_depth"`
}

func (s *streamServer) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a report batch")
		return
	}
	if s.root != nil || s.standby != nil {
		httpError(w, http.StatusConflict,
			"this node merges sealed tallies (/v1/tally), it does not ingest report batches; POST them to a frontend")
		return
	}
	// The zero-copy lane: the body lands in a pooled buffer, is
	// structurally validated (never decoded into reports), and travels
	// through the queue, the WAL and the counting fold as those same
	// bytes; the worker returns the buffer to the pool after the fold.
	buf := s.getBuf()
	body, err := readAllInto(buf, http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.putBuf(body)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	count, err := ldprecover.ValidateReportBatchFrame(body)
	if err != nil {
		s.putBuf(body)
		httpError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if count == 0 {
		s.putBuf(body)
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: 0, QueueDepth: len(s.queue)})
		return
	}
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.putBuf(body)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.queue <- body:
		s.drainMu.RUnlock()
		s.accepted.Add(1)
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: count, QueueDepth: len(s.queue)})
	default:
		s.drainMu.RUnlock()
		s.putBuf(body)
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingest queue full")
	}
}

// partialResponse acknowledges an accepted partial tally.
type partialResponse struct {
	// Users is how many users' reports the partial pre-aggregated.
	Users int64 `json:"users"`
	// EpochHint echoes the frame's hint; the fold landed in the
	// currently open epoch regardless (the hint is advisory, DESIGN.md
	// §8), this is for collector-side logging.
	EpochHint int `json:"epoch_hint"`
}

func (s *streamServer) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a partial tally")
		return
	}
	if s.root != nil || s.standby != nil {
		httpError(w, http.StatusConflict,
			"this node merges sealed tallies (/v1/tally), it does not ingest partial tallies; POST them to a frontend")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	p, err := ldprecover.UnmarshalPartial(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding partial tally: %v", err)
		return
	}
	if d := s.mgr.Config().Params.Domain; len(p.Counts) != d {
		httpError(w, http.StatusBadRequest, "partial tally over domain %d, server domain is %d", len(p.Counts), d)
		return
	}
	// Folded synchronously, not queued: partials are rare (one frame
	// summarizes thousands of users) and the staleness verdict must be
	// in this response — the collector discards its local aggregate on
	// 202 and re-aggregates on 409, so a late answer is a wrong answer.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.store != nil {
		err = s.store.AppendPartial(body, p)
	} else {
		err = s.mgr.AddPartial(p)
	}
	s.drainMu.RUnlock()
	switch {
	case err == nil:
		s.partialsAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, partialResponse{Users: p.Users, EpochHint: p.EpochHint})
	case errors.Is(err, ldprecover.ErrStalePartial):
		// The sealed-boundary taxonomy of /v1/tally: an ordinary
		// client-visible conflict, not broken durability.
		s.partialsStale.Add(1)
		httpError(w, http.StatusConflict, "folding partial tally: %v", err)
	default:
		// Everything client-shaped was validated above; what remains is
		// a WAL that can no longer be written — as fatal as a failed
		// seal.
		httpError(w, http.StatusInternalServerError, "folding partial tally: %v", err)
		s.reportFatal(err)
	}
}

// estimateResponse is the JSON shape of a window estimate.
type estimateResponse struct {
	Seq              int       `json:"seq"`
	Epochs           int       `json:"epochs"`
	Total            int64     `json:"total"`
	Poisoned         []float64 `json:"poisoned,omitempty"`
	Recovered        []float64 `json:"recovered,omitempty"`
	Targets          []int     `json:"targets,omitempty"`
	PartialKnowledge bool      `json:"partial_knowledge"`
}

func toEstimateResponse(est *ldprecover.WindowEstimate) estimateResponse {
	return estimateResponse{
		Seq:              est.Seq,
		Epochs:           est.Epochs,
		Total:            est.Total,
		Poisoned:         est.Poisoned,
		Recovered:        est.Recovered,
		Targets:          est.Targets,
		PartialKnowledge: est.PartialKnowledge,
	}
}

func (s *streamServer) handleSeal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST to seal the current epoch")
		return
	}
	est, err := s.seal()
	if err != nil {
		if errors.Is(err, errNothingToSeal) {
			// A root with an empty barrier has nothing to close — an
			// ordinary client-visible condition, not broken durability.
			httpError(w, http.StatusConflict, "sealing: %v", err)
			return
		}
		if errors.Is(err, errStandbyNotPromoted) {
			httpError(w, http.StatusServiceUnavailable, "sealing: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "sealing: %v", err)
		// A failed seal is as fatal here as on the ticker path: tell the
		// serve loop so the server shuts down and drains instead of
		// accepting reports forever with broken durability.
		s.reportFatal(err)
		return
	}
	writeJSON(w, http.StatusOK, toEstimateResponse(est))
}

func (s *streamServer) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET the window estimate")
		return
	}
	if q := r.URL.Query().Get("window"); q != "" {
		k, err := strconv.Atoi(q)
		if err != nil || k < 1 {
			httpError(w, http.StatusBadRequest, "window must be a positive epoch count")
			return
		}
		est, err := s.manager().EstimateWindow(k)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, toEstimateResponse(est))
		return
	}
	est := s.manager().Latest()
	if est == nil {
		httpError(w, http.StatusConflict, "no epoch sealed yet")
		return
	}
	writeJSON(w, http.StatusOK, toEstimateResponse(est))
}

// statsResponse is the monitoring summary.
type statsResponse struct {
	Domain          int   `json:"domain"`
	Epochs          int   `json:"epochs"`
	LiveTotal       int64 `json:"live_total"`
	WindowTotal     int64 `json:"window_total"`
	IngestedTotal   int64 `json:"ingested_total"`
	Targets         []int `json:"targets,omitempty"`
	QueueDepth      int   `json:"queue_depth"`
	BatchesAccepted int64 `json:"batches_accepted"`
	BatchesRejected int64 `json:"batches_rejected"`
	// Partial-tally lane (POST /v1/partial) counters.
	PartialsAccepted int64 `json:"partials_accepted"`
	PartialsStale    int64 `json:"partials_stale"`
	// Request-body buffer pool effectiveness for the report lane.
	BufPoolHits   int64 `json:"buf_pool_hits"`
	BufPoolMisses int64 `json:"buf_pool_misses"`
	// Cluster is the role-specific section: the frontend's push state
	// or the root's barrier/merge accounting. Omitted on a single node.
	Cluster *clusterStatsResponse `json:"cluster,omitempty"`
}

func (s *streamServer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET the server stats")
		return
	}
	st := s.manager().Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Domain:           st.Domain,
		Epochs:           st.Epochs,
		LiveTotal:        st.LiveTotal,
		WindowTotal:      st.WindowTotal,
		IngestedTotal:    st.IngestedTotal,
		Targets:          st.Targets,
		QueueDepth:       len(s.queue),
		BatchesAccepted:  s.accepted.Load(),
		BatchesRejected:  s.rejected.Load(),
		PartialsAccepted: s.partialsAccepted.Load(),
		PartialsStale:    s.partialsStale.Load(),
		BufPoolHits:      s.poolGets.Load() - s.poolMisses.Load(),
		BufPoolMisses:    s.poolMisses.Load(),
		Cluster:          s.clusterStats(),
	})
}

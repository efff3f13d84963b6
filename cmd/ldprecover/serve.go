package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ldprecover/internal/core"
	"ldprecover/internal/experiment"
	"ldprecover/internal/ldp"
	"ldprecover/internal/persist"
	"ldprecover/internal/stream"
)

// The serve subcommand runs the epoch-streamed recovery service: a
// long-lived collector that ingests codec-encoded report batches over
// HTTP, seals epochs on a timer (or on demand), and serves per-window
// poisoned vs. recovered frequency estimates.
//
// Endpoints:
//
//	POST /v1/reports   body = MarshalReportBatch frame; enqueued for
//	                   ingest. 202 on accept (queued, not yet logged),
//	                   429 when the queue is full.
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
// Ingest is decoupled from request handling by a bounded queue of
// validated frames draining into EpochManager.AddReportFrame
// (DurableStore.AppendBatchFrame with -data-dir) from -ingesters
// goroutines, so a slow aggregation moment backpressures clients with
// 429 instead of accumulating unbounded memory. Shutdown
// (SIGINT/SIGTERM) stops the listener, drains the queue, seals the
// final epoch, and prints it.
//
// With -data-dir the service is durable (DESIGN.md §6): batches are
// written to a CRC-framed WAL before they are aggregated, every seal
// snapshots the manager's cross-epoch state atomically and truncates the
// log, and a restart resumes from snapshot + WAL tail with window
// estimates bit-identical to an uninterrupted run — including the
// recovered-baseline history and target-tracker hysteresis that drive
// the LDPRecover* upgrade, which an in-memory server forgets.
//
// With -role the server joins a cluster (DESIGN.md §7, §9). A role is a
// preset (rolePresets) naming which optional parts the server composes
// around its ingest part: a barrier that merges children's sealed
// tallies (POST /v1/tally) into estimates bit-identical to a single node
// that saw every report, an uplink that pushes every sealed epoch to
// -root-addr, and a standby that tails a root's data directory and
// takes over when the root dies.
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
		eta      = fs.Float64("eta", core.DefaultEta, "assumed malicious/genuine ratio")
		targetK  = fs.Int("targets", 0, "max auto-identified targets per epoch (0: min(10, d), negative: disable)")
		minZ     = fs.Float64("minz", 3, "z-score threshold for flagging a target")
		stable   = fs.Int("stable", 3, "consecutive epochs before LDPRecover* engages")
		queueLen = fs.Int("queue", 256, "ingest queue bound (batches)")
		ingest   = fs.Int("ingesters", 2, "ingest worker goroutines")
		maxBody  = fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
		dataDir  = fs.String("data-dir", "", "durable state directory: WAL + per-seal snapshots (empty: in-memory only)")
		fsyncN   = fs.Int("fsync-every", 1, "fsync the WAL every n-th batch (negative: only at epoch seals)")
		walSeg   = fs.Int64("wal-segment", persist.DefaultSegmentBytes, "WAL segment rotation size in bytes")
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
	kind, err := experiment.ParseProtocol(*protoN)
	if err != nil {
		return err
	}
	proto, err := kind.Build(*d, *eps)
	if err != nil {
		return err
	}
	srv, err := newStreamServer(streamServerConfig{
		Stream: stream.Config{
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
		fmt.Printf("%s state in %s: restored %d merged epochs, members %v\n",
			srv.parts.name(), *dataDir, srv.root.merger.SealedThrough(), srv.root.merger.Nodes())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.close()
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The startup line: who (for a cluster node), then one clause per
	// part. cmd/ldpload reads the address after " on ".
	who := srv.parts.name()
	if *nodeID != "" {
		who += " " + strconv.Quote(*nodeID)
	}
	var clauses []string
	var tick <-chan time.Time
	if !srv.parts.closesOnChildren() {
		clauses = append(clauses, fmt.Sprintf("epoch=%s window=%d", *epoch, *window))
		if *epoch > 0 {
			//ldplint:allow nowallclock the epoch ticker IS the cluster's shared epoch clock
			ticker := time.NewTicker(*epoch)
			defer ticker.Stop()
			tick = ticker.C
		}
	}
	if srv.parts.barrier {
		clauses = append(clauses, fmt.Sprintf("merging %d children %v (straggler timeout %s)", len(nodes), nodes, *tallyTO))
	}
	if srv.parts.uplink {
		clauses = append(clauses, "pushing sealed tallies to "+*rootAddr)
	}
	if srv.parts.standby {
		clauses = append(clauses, fmt.Sprintf("tailing %s, watching %s, promoting after %s", *dataDir, *rootAddr, *promoteA))
	}
	clauses = append(clauses, "olh-kernel="+ldp.OLHKernel())
	fmt.Println(strings.TrimSpace(fmt.Sprintf("%s serving %s (d=%d, epsilon=%g) on http://%s  %s",
		who, proto.Name(), *d, *eps, ln.Addr(), strings.Join(clauses, ", "))))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	return serveLoop(hs, srv, tick, sigc, errc)
}

// A server is an ingest part — the manager, the bounded report queue
// and, with -data-dir, the report WAL — plus up to three optional parts:
//
//   - barrier: merges children's sealed tallies behind an epoch barrier
//     (rootMerge: lease, snapshot store, seal-log, straggler timer);
//   - uplink: pushes every sealed epoch to the parent (tallyPusher, its
//     ring re-send, and the per-seal enqueue);
//   - standby: tails a root's data directory and, on promotion, opens a
//     barrier of its own (standbyControl).
type serverParts struct{ barrier, uplink, standby bool }

// Cluster role names for -role.
const (
	roleFrontend = "frontend"
	roleRoot     = "root"
	roleMerger   = "merger"
	roleStandby  = "standby"
)

// rolePresets is all a -role name means: the parts the server gets.
var rolePresets = map[string]serverParts{
	"":           {},
	roleFrontend: {uplink: true},
	roleRoot:     {barrier: true},
	roleMerger:   {barrier: true, uplink: true},
	roleStandby:  {standby: true},
}

// name is the preset these parts make, as /v1/stats reports it; empty
// on a single node.
func (p serverParts) name() string {
	for role, parts := range rolePresets {
		if parts == p {
			return role
		}
	}
	return ""
}

// closesOnChildren reports whether the node's epochs close on its
// children's tallies — it has a barrier, or is a standby that opens one
// on promotion — rather than on the shared clock. Such a node runs no
// epoch ticker, skips the drain seal (sealing there would advance the
// barrier past tallies still en route), and takes no report batches or
// partials, so it keeps no report WAL either.
func (p serverParts) closesOnChildren() bool { return p.barrier || p.standby }

// clusterFlagScopes is the flag→parts scope table: a cluster flag set
// explicitly on a server none of whose parts it configures fails
// startup, naming the roles that take it.
var clusterFlagScopes = []struct {
	flags []string
	what  string
	takes func(serverParts) bool
}{
	{[]string{"root-addr"}, "is the parent's base URL (an uplink pushes tallies there, a standby health-checks it)",
		func(p serverParts) bool { return p.uplink || p.standby }},
	{[]string{"node-id"}, "names this node to its parent, which dedupes tallies by it (on a standby: the lease owner)",
		func(p serverParts) bool { return p.uplink || p.standby }},
	{[]string{"nodes", "tally-timeout"}, "configures the epoch barrier (on a standby: after promotion)", serverParts.closesOnChildren},
	{[]string{"standby-addr"}, "is the upward failover target", func(p serverParts) bool { return p.uplink }},
	// A merger's id is a fixed entry in its parent's -nodes.
	{[]string{"join", "leave-on-shutdown"}, "changes this node's membership in its parent's barrier",
		func(p serverParts) bool { return p.uplink && !p.barrier }},
	{[]string{"promote-after"}, "is the standby's failover threshold", func(p serverParts) bool { return p.standby }},
	// An uplink sees only its subtree; a subtree-local z-score would drift
	// from the merged view.
	{[]string{"targets", "minz", "stable"}, "configures target identification, which runs at the tree's root",
		func(p serverParts) bool { return !p.uplink }},
	{[]string{"epoch"}, "is the frontends' shared clock; a barrier's epochs close on its children's tallies and -tally-timeout",
		func(p serverParts) bool { return !p.closesOnChildren() }},
}

// rolesTaking lists the presets whose parts satisfy takes, for errors.
func rolesTaking(takes func(serverParts) bool) string {
	var roles []string
	for _, role := range slices.Sorted(maps.Keys(rolePresets)) {
		switch {
		case !takes(rolePresets[role]):
		case role == "":
			roles = append(roles, "a single node")
		default:
			roles = append(roles, "-role="+role)
		}
	}
	return strings.Join(roles, " or ")
}

// validateClusterFlags rejects inconsistent cluster configurations up
// front, naming the flags (the PR 4 validation style): every error a
// misconfigured node would otherwise hit mid-flight — a frontend with
// no root, a root with no barrier set, a flag none of the node's parts
// uses — fails at startup instead. It returns the parsed -nodes set.
func validateClusterFlags(role, rootAddr, nodeID, nodesF, standbyAddr, dataDir string,
	tallyTO, promoteAfter time.Duration, explicit map[string]bool) ([]string, error) {
	parts, ok := rolePresets[role]
	if !ok {
		return nil, fmt.Errorf("-role %q is not one of frontend, root, merger, standby (or empty for single-node)", role)
	}
	for _, sc := range clusterFlagScopes {
		for _, f := range sc.flags {
			if explicit[f] && !sc.takes(parts) {
				return nil, fmt.Errorf("-%s %s; it needs %s", f, sc.what, rolesTaking(sc.takes))
			}
		}
	}
	checkURL := func(flagName, v string) error {
		if u, err := url.Parse(v); err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("-%s %q is not an http(s) base URL like http://10.0.0.1:8347", flagName, v)
		}
		return nil
	}
	if parts.uplink || parts.standby {
		if rootAddr == "" {
			return nil, fmt.Errorf("-role=%s requires -root-addr (the parent node's base URL)", role)
		}
		if err := checkURL("root-addr", rootAddr); err != nil {
			return nil, err
		}
	}
	if parts.uplink {
		if standbyAddr != "" {
			if err := checkURL("standby-addr", standbyAddr); err != nil {
				return nil, err
			}
		}
		if nodeID == "" {
			return nil, fmt.Errorf("-role=%s requires -node-id (unique per node; the parent dedupes tallies by it)", role)
		}
		if len(nodeID) > 256 {
			return nil, fmt.Errorf("-node-id of %d bytes exceeds the tally codec's 256-byte cap", len(nodeID))
		}
	}
	if parts.standby {
		if dataDir == "" {
			return nil, fmt.Errorf("-role=%s requires -data-dir (the root's data directory, shared or replicated, to tail snapshots and the seal-log from)", role)
		}
		if promoteAfter <= 0 {
			return nil, fmt.Errorf("-promote-after %s must be positive: it is both the failover threshold and the lease staleness bound", promoteAfter)
		}
	}
	if !parts.closesOnChildren() {
		return nil, nil
	}
	if tallyTO < 0 {
		return nil, fmt.Errorf("-tally-timeout %s is negative; use 0 to wait for stragglers forever", tallyTO)
	}
	if nodesF == "" {
		if parts.barrier {
			return nil, fmt.Errorf("-role=%s requires -nodes (comma-separated child node ids forming the epoch barrier)", role)
		}
		return nil, nil
	}
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
	Stream    stream.Config
	QueueLen  int
	Ingesters int
	MaxBody   int64
	// DataDir enables durable mode; empty keeps all state in memory.
	// The ingest part keeps a report-level WAL + per-seal snapshots; a
	// barrier keeps per-seal snapshots of the merged state only (its
	// inputs are re-sent tallies, not report batches).
	DataDir      string
	SyncEvery    int
	SegmentBytes int64
	// Role names a rolePresets entry: the parts the server composes.
	// The barrier merges tallies from the Nodes barrier set, forcing
	// partial seals after TallyTimeout; the uplink pushes every sealed
	// epoch to RootAddr as NodeID; the standby tails the root's DataDir
	// and promotes when the root goes dark past PromoteAfter.
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
	mgr   *stream.EpochManager
	store *persist.Store // nil in memory-only mode
	// queue carries POST /v1/reports bodies as the views the handler's
	// validation returned, each over a pooled buffer: the worker folds
	// the view in place — durable mode appends its bytes to the WAL
	// verbatim, counting never materializes a []Report — and returns
	// the buffer to the pool.
	queue   chan ldp.ReportFrame
	wg      sync.WaitGroup
	maxBody int64

	// parts says which optional parts the server composes; each is set
	// exactly when its part is present. pusher is the uplink: sealed
	// epochs enqueue here and are delivered to the parent at-least-once.
	// root is the barrier driver behind POST /v1/tally. standby is the
	// tail/health/promotion machinery, which opens a barrier of its own
	// when it takes over.
	parts   serverParts
	pusher  *tallyPusher
	root    *rootMerge
	standby *standbyControl
	// leaveOnShutdown: the leaf announces its departure after the final
	// flush, so the parent's barrier stops expecting it.
	leaveOnShutdown bool

	// encoded is the serving estimate with its JSON body, so the seal's
	// encode is the only one every read of that window pays for (see
	// writeEstimate).
	encoded atomic.Pointer[encodedEstimate]

	// sealMu serializes seals so ticker, /v1/seal and drain cannot
	// interleave epoch boundaries.
	sealMu sync.Mutex
	// sealFn is what seal() runs under sealMu — the store's persisting
	// seal in durable mode, the manager's otherwise. Tests substitute a
	// failing one to drive the error paths.
	sealFn func() (*stream.WindowEstimate, error)

	// foldFn is what an ingest worker runs on each dequeued frame:
	// ingest. Tests wrap it to park the worker.
	foldFn func(f ldp.ReportFrame) error

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

	// bufPool recycles request-body buffers: every POST handler reads
	// its body into one. A /v1/reports buffer travels through the queue
	// and the ingest worker returns it after the fold; every other
	// handler returns its own before it exits.
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
	parts, ok := rolePresets[cfg.Role]
	if !ok {
		return nil, fmt.Errorf("unknown cluster role %q", cfg.Role)
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = 10 * time.Second
	}
	if cfg.StandbyPoll <= 0 {
		cfg.StandbyPoll = min(max(cfg.PromoteAfter/4, 10*time.Millisecond), 500*time.Millisecond)
	}
	if parts.uplink {
		// Detection runs at the tree's root, over the full union: a node
		// with an uplink sees only its subtree's slice of the population.
		cfg.Stream.TargetK = -1
	}
	mgr, err := stream.NewEpochManager(cfg.Stream)
	if err != nil {
		return nil, err
	}
	s := &streamServer{
		mgr:     mgr,
		queue:   make(chan ldp.ReportFrame, cfg.QueueLen),
		maxBody: cfg.MaxBody,
		fatalc:  make(chan error, 1),
		parts:   parts,
	}
	s.foldFn = s.ingest
	s.bufPool.New = func() any {
		// An empty buffer: readAllInto grows it to the body it carries,
		// and it returns to the pool at that size. A fixed up-front size
		// overshoots small frames many times over, and every GC empties
		// the pool, so the heap would churn through those oversized
		// buffers at the rate the server collects garbage.
		s.poolMisses.Add(1)
		var b []byte
		return &b
	}
	// The lease owner: the node id, or the preset's name for a root and
	// an unnamed standby. One data directory per tree node.
	owner := cfg.NodeID
	if owner == "" {
		owner = parts.name()
	}
	// A barrier or standby seals on its children's tallies; otherwise the
	// ingest part seals, through its WAL when durable.
	switch {
	case parts.barrier:
		if s.root, err = openBarrier(cfg, owner, mgr, nil, s.reportFatal); err != nil {
			return nil, err
		}
		s.sealFn = s.root.forceSeal
	case parts.standby:
		if err := s.openStandby(cfg, owner); err != nil {
			return nil, err
		}
	case cfg.DataDir != "":
		s.store, err = persist.Open(cfg.DataDir, mgr, persist.Options{
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
	if parts.uplink {
		if err := s.openUplink(cfg); err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	for i := 0; i < cfg.Ingesters; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for f := range s.queue {
				// Only a WAL append can fail, and only when the log can
				// no longer be written — the server cannot keep its
				// promises, so crash rather than drop reports silently.
				if err := s.foldFn(f); err != nil {
					panic(err)
				}
				// Neither the WAL nor the counting fold retains the
				// frame, so the buffer can serve the next request.
				s.putBuf(f.Bytes())
			}
		}()
	}
	return s, nil
}

// ingest folds one dequeued report batch view — through the WAL first
// in durable mode, so a batch is never aggregated without being logged.
// The wire bytes are appended verbatim and counted in place; no
// []Report ever exists.
func (s *streamServer) ingest(f ldp.ReportFrame) error {
	if s.store != nil {
		return s.store.AppendBatchFrame(f)
	}
	s.mgr.AddReportFrame(f)
	return nil
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
// pre-promotion), and every other node its own.
func (s *streamServer) manager() *stream.EpochManager {
	if root := s.currentRoot(); root != nil {
		return root.merger.Manager()
	}
	if s.standby != nil {
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
func (s *streamServer) seal() (*stream.WindowEstimate, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return s.sealFn()
}

// drain closes the ingest queue, waits for the workers to fold every
// queued batch, and seals the final epoch. A node whose epochs close on
// its children's tallies skips the seal (nil estimate): sealing at
// shutdown would advance the barrier past tallies still en route,
// turning their re-sends into stale duplicates.
func (s *streamServer) drain() (*stream.WindowEstimate, error) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return nil, errors.New("already draining")
	}
	s.draining = true
	s.drainMu.Unlock()
	close(s.queue)
	s.wg.Wait()
	if s.parts.closesOnChildren() {
		return nil, nil
	}
	return s.seal()
}

// close releases the parts: the uplink's pusher (after a bounded final
// flush, then the leave announcement if configured), the standby's
// watch loop, the barrier's lease, seal-log and snapshot store, and the
// durable store.
func (s *streamServer) close() error {
	var errs []error
	if s.pusher != nil {
		// The flush first — a leave boundary at or past the last sealed
		// epoch only holds if that epoch's tally got delivered.
		errs = append(errs, s.pusher.close())
		if s.leaveOnShutdown {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			from := s.mgr.Stats().Epochs
			if ar, err := s.pusher.announce(ctx, ldp.AnnounceLeave, from); err != nil {
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
	if s.standby != nil {
		s.standby.stop()
	}
	if root := s.currentRoot(); root != nil {
		errs = append(errs, root.stop())
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
	if s.parts.closesOnChildren() {
		httpError(w, http.StatusConflict,
			"this node merges sealed tallies (/v1/tally), it does not ingest report batches; POST them to a frontend")
		return
	}
	// The zero-copy lane: the body lands in a pooled buffer and is
	// structurally validated here, once (never decoded into reports).
	// The view travels through the queue, the WAL and the counting fold
	// over those same bytes; the worker returns the buffer to the pool
	// after the fold.
	body, ok := s.readBody(w, r, "body")
	if !ok {
		return
	}
	frame, err := ldp.ValidateReportBatchFrame(body)
	if err != nil {
		s.putBuf(body)
		httpError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if frame.Reports() == 0 {
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
	case s.queue <- frame:
		s.drainMu.RUnlock()
		s.accepted.Add(1)
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: frame.Reports(), QueueDepth: len(s.queue)})
	default:
		s.drainMu.RUnlock()
		s.putBuf(body)
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "ingest queue full")
	}
}

// readBody reads a request body of at most -max-body bytes into a
// buffer checked out of the pool; the caller owns it and returns it with
// putBuf once nothing aliases it any more. On a read error it returns
// the buffer itself, answers 413 (over the cap) or 400 and reports
// false.
func (s *streamServer) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := readAllInto(s.getBuf(), http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.putBuf(body)
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "reading %s: %v", what, err)
		return nil, false
	}
	return body, true
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
	if s.parts.closesOnChildren() {
		httpError(w, http.StatusConflict,
			"this node merges sealed tallies (/v1/tally), it does not ingest partial tallies; POST them to a frontend")
		return
	}
	// Validated in place and folded straight from the wire bytes: the
	// view p aliases body, which goes back to the pool when the handler
	// returns — the WAL append and the fold are done with it by then.
	body, ok := s.readBody(w, r, "body")
	if !ok {
		return
	}
	defer s.putBuf(body)
	p, err := ldp.ValidatePartialFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding partial tally: %v", err)
		return
	}
	if d := s.mgr.Config().Params.Domain; p.Domain() != d {
		httpError(w, http.StatusBadRequest, "partial tally over domain %d, server domain is %d", p.Domain(), d)
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
		err = s.store.AppendPartial(p)
	} else {
		err = s.mgr.AddPartialFrame(p)
	}
	s.drainMu.RUnlock()
	switch {
	case err == nil:
		s.partialsAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, partialResponse{Users: p.Total, EpochHint: p.Epoch})
	case errors.Is(err, stream.ErrStalePartial):
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
	s.writeEstimate(w, est)
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
		s.writeEstimate(w, est)
		return
	}
	est := s.manager().Latest()
	if est == nil {
		httpError(w, http.StatusConflict, "no epoch sealed yet")
		return
	}
	s.writeEstimate(w, est)
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
	// Request-body buffer pool effectiveness: every POST body is read
	// into a pooled buffer.
	BufPoolHits   int64 `json:"buf_pool_hits"`
	BufPoolMisses int64 `json:"buf_pool_misses"`
	// OLHKernel names the kernel OLH reports fold on, "avx512" or
	// "generic", so a throughput number can be read against the code
	// that produced it.
	OLHKernel string `json:"olh_kernel"`
	// Cluster is the parts' section: the uplink's push state, the
	// barrier's merge accounting, the standby's tail or promotion.
	// Omitted on a single node.
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
		OLHKernel:        ldp.OLHKernel(),
		Cluster:          s.clusterStats(),
	})
}

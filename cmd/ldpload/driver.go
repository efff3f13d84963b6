package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldprecover/internal/core"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// Set-up repetitions: set-up time is the median over several spawns.
// Cold boots cost milliseconds; a replay boot costs the WAL replay.
const (
	coldBoots   = 21
	replayBoots = 3
)

// blocks is how many times a run cycles through its rate, seal and
// saturate phases. The host's speed wanders over seconds to minutes;
// cycling spreads every metric's samples over the whole run, not over
// one third of it.
const blocks = 5

// runConfig is one run: a workload, its seed and its schedule. The
// benchmark derives the schedule from --seconds; the tests shrink it.
type runConfig struct {
	w    workload
	seed uint64
	// phase is the length of one block's rate, seal or saturate phase.
	phase time.Duration
	// sealEvery is the rate-phase seal cadence; an estimate read lands
	// halfway between consecutive seals.
	sealEvery time.Duration
	trace     bool
	serverBin string
	workDir   string // data directories, server logs, the trace's WAL
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// watermark is the partial lane's view of the server's epoch clock: the
// watermark the last completed seal returned. Hints are stamped from it.
type watermark struct{ v atomic.Int64 }

func (w *watermark) get() int { return int(w.v.Load()) }

// advance moves the watermark forward to v; it never moves back.
func (w *watermark) advance(v int) {
	for {
		cur := w.v.Load()
		if int64(v) <= cur || w.v.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// waitPast waits until the watermark moves past hint, up to deadline.
// The seal that moves it is already in flight, so this polls briefly.
func (w *watermark) waitPast(hint int, deadline time.Time) bool {
	for w.get() <= hint {
		if !now().Before(deadline) {
			return false
		}
		sleep(100 * time.Microsecond)
	}
	return true
}

// driver runs one workload against one server process at a time.
type driver struct {
	cfg runConfig
	in  *inputs
	c   *client
	srv *server
	wm  watermark

	attempted, failed atomic.Int64 // every operation: ingest, seal, read
	ingests, retries  atomic.Int64 // ingest attempts, and resends among them
	acked             atomic.Int64 // reports (users on the partial lane) acknowledged
	failures          atomic.Int64 // failures already described on stderr
}

// fail counts a failed operation and describes the first few.
func (d *driver) fail(format string, args ...any) {
	d.failed.Add(1)
	if d.failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "ldpload: %s: "+format+"\n", append([]any{d.cfg.w.name}, args...)...)
	}
}

// frame returns the body for send i, its report (or user) count, and the
// epoch hint it carries. Partial frames carry MGA users once the clock
// reaches the workload's attack epoch.
func (d *driver) frame(i int) ([]byte, int64, int, error) {
	if d.cfg.w.lane == reportLane {
		return d.in.frames[i%len(d.in.frames)], d.in.frameReports, 0, nil
	}
	hint := d.wm.get()
	pool := d.in.clean
	if hint >= d.cfg.w.attackFrom {
		pool = d.in.attacked
	}
	p := pool[i%len(pool)]
	b, err := stamp(p, hint)
	return b, p.Users, hint, err
}

// ingest posts send i and reports whether it was acknowledged. With
// backpressure (the saturate phase) a 429 is retried after 1 ms for up to
// 1 s; without it (the rate phase) any refusal fails. On the partial lane
// a 409 means a seal made the hint stale: the frame is restamped with the
// new watermark and resent, which is a retry, not a failure.
func (d *driver) ingest(i int, backpressure bool) bool {
	d.attempted.Add(1)
	d.ingests.Add(1)
	path := "/v1/reports"
	if d.cfg.w.lane == partialLane {
		path = "/v1/partial"
	}
	start := now()
	deadline := start.Add(time.Second)
	for {
		body, n, hint, err := d.frame(i)
		if err != nil {
			d.fail("frame %d: %v", i, err)
			return false
		}
		code, msg, err := d.c.do(http.MethodPost, d.srv.base+path, body)
		switch {
		case err != nil:
			d.fail("POST %s: %v", path, err)
			return false
		case code == http.StatusAccepted:
			d.acked.Add(n)
			return true
		case code == http.StatusConflict && d.cfg.w.lane == partialLane:
			d.retries.Add(1)
			if d.wm.waitPast(hint, deadline) {
				continue
			}
		case code == http.StatusTooManyRequests && backpressure && since(start) < time.Second:
			d.retries.Add(1)
			sleep(time.Millisecond)
			continue
		}
		d.fail("POST %s: %d %s", path, code, msg)
		return false
	}
}

// seal closes the current epoch and advances the watermark.
func (d *driver) seal() bool {
	_, ok := d.timedSeal()
	return ok
}

// timedSeal seals and returns the round trip up to the last byte of the
// response. Decoding the response, which carries the whole window
// estimate, is client work and stays outside it.
func (d *driver) timedSeal() (time.Duration, bool) {
	d.attempted.Add(1)
	sent := now()
	code, body, err := d.c.do(http.MethodPost, d.srv.base+"/v1/seal", nil)
	rtt := since(sent)
	var est struct {
		Seq int `json:"seq"`
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("POST /v1/seal: %d %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &est)
	}
	if err != nil {
		d.fail("%v", err)
		return 0, false
	}
	d.wm.advance(est.Seq + 1)
	return rtt, true
}

// read fetches the window estimate over the newest 4 sealed epochs.
func (d *driver) read() bool {
	d.attempted.Add(1)
	code, msg, err := d.c.do(http.MethodGet, d.srv.base+"/v1/estimate?window=4", nil)
	if err != nil || code != http.StatusOK {
		d.fail("GET /v1/estimate: %d %s %v", code, msg, err)
		return false
	}
	return true
}

// stats fetches /v1/stats.
func (d *driver) stats() (statsDoc, error) {
	var st statsDoc
	err := d.c.getJSON(d.srv.base+"/v1/stats", &st)
	return st, err
}

// waitIngested waits up to 10 s for the server to have folded exactly
// want reports with an empty queue: acknowledged reports are neither
// lost nor double counted.
func (d *driver) waitIngested(want int64) (statsDoc, error) {
	start := now()
	for {
		st, err := d.stats()
		if err != nil {
			return st, err
		}
		if st.IngestedTotal > want {
			return st, fmt.Errorf("server ingested %d reports, %d were acknowledged", st.IngestedTotal, want)
		}
		if st.IngestedTotal == want && st.QueueDepth == 0 {
			return st, nil
		}
		if since(start) > 10*time.Second {
			return st, fmt.Errorf("server ingested %d of %d acknowledged reports after 10 s", st.IngestedTotal, want)
		}
		sleep(time.Millisecond)
	}
}

// periodic runs op at start+k·every+offset+jitter() for k = 1, 2, ...
// until end or until stop closes, and returns how many ops succeeded. A
// nil jitter adds nothing.
func periodic(start, end time.Time, every, offset time.Duration, jitter func() time.Duration, stop <-chan struct{}, op func() bool) int {
	done := 0
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k)*every + offset)
		if jitter != nil {
			due = due.Add(jitter())
		}
		if !due.Before(end) || !waitUntil(due, stop) {
			return done
		}
		if op() {
			done++
		}
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateSamples are the rate phase's latencies, in ms, and the server's
// resident set, in MB.
type rateSamples struct {
	ack, late []float64
	rss       []float64
}

// ratePhase is the open loop: frame i is due at start + i/rate and is
// timed from that due time, so a stall is charged to every request it
// delays. Two senders share the schedule, so at most two ingest requests
// are in flight; seals and window reads run on their own cadence, as
// they would in service, but are timed in the seal phase instead.
//
// Each seal and read is delayed by a seeded draw from one frame interval.
// Undelayed, they would meet the frame schedule at the same phase all run
// long, so whether frames queued behind them would be settled once per
// run, and the ack median would jump between runs.
//
// The server's VmRSS is sampled every 100 ms. At this steady load it
// holds still; under saturation it follows how full the ingest queue's
// pooled buffers happen to get.
//
// The samples of block b are appended to out.
func (d *driver) ratePhase(b int, out *rateSamples) {
	w := d.cfg.w
	n := int(w.rate * d.cfg.phase.Seconds())
	gap := float64(time.Second) / w.rate
	dither := func(stream uint64) func() time.Duration {
		r := rng.New(d.cfg.seed ^ stream ^ uint64(b)<<40)
		return func() time.Duration { return time.Duration(r.Float64() * gap) }
	}
	start := now()
	end := start.Add(d.cfg.phase)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack, late []float64
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					break
				}
				due := start.Add(time.Duration(float64(k) / w.rate * float64(time.Second)))
				waitUntil(due, nil)
				late = append(late, ms(since(due)))
				if d.ingest(k, false) {
					ack = append(ack, ms(since(due)))
				}
			}
			mu.Lock()
			out.ack = append(out.ack, ack...)
			out.late = append(out.late, late...)
			mu.Unlock()
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		periodic(start, end, d.cfg.sealEvery, 0, dither(0x7365616c), nil, d.seal) // "seal"
	}()
	go func() {
		defer wg.Done()
		periodic(start, end, d.cfg.sealEvery, d.cfg.sealEvery/2, dither(0x72656164), nil, d.read) // "read"
	}()
	go func() {
		defer wg.Done()
		pid := d.srv.pid()
		periodic(start, end, 100*time.Millisecond, 0, nil, nil, func() bool {
			if mb, err := procRSS(pid); err == nil {
				mu.Lock()
				out.rss = append(out.rss, mb)
				mu.Unlock()
			}
			return true
		})
	}()
	wg.Wait()
}

// sealSamples are the seal phase's round trips, in ms.
type sealSamples struct {
	seal, read []float64
}

// sealPhase measures the seal path on its own, for the phase length. Each
// cycle posts one rate-phase epoch of frames, waits until the server has
// folded them, and then times POST /v1/seal and GET
// /v1/estimate?window=4 back to back. Nothing else is in flight, so
// neither round trip queues behind an ingest request, and every seal
// closes an epoch of the same size. The round trips are appended to out.
func (d *driver) sealPhase(out *sealSamples) error {
	perSeal := d.cfg.framesPerSeal()
	end := now().Add(d.cfg.phase)
	for i := 0; now().Before(end); i++ {
		for k := range perSeal {
			d.ingest(i*perSeal+k, true)
		}
		if _, err := d.waitIngested(d.acked.Load()); err != nil {
			return fmt.Errorf("conservation in the seal phase: %w", err)
		}
		rtt, ok := d.timedSeal()
		if !ok {
			continue
		}
		out.seal = append(out.seal, ms(rtt))
		sent := now()
		if d.read() {
			out.read = append(out.read, ms(since(sent)))
		}
	}
	return nil
}

// framesPerSeal is the number of frames the rate phase sends between two
// seals.
func (c runConfig) framesPerSeal() int {
	return max(1, int(math.Round(c.w.rate*c.sealEvery.Seconds())))
}

// satResult is what the saturate phases measured, summed over blocks.
type satResult struct {
	reports      int64         // reports (users) the server counted
	elapsed      time.Duration // phase start to drained queue
	cpu          time.Duration // server CPU over the same interval
	seals, reads int
	pool         float64 // buffer-pool hit ratio at the end
}

// closedLoop runs two senders that post back to back, with
// backpressure, while more(k) holds for the next send k.
func (d *driver) closedLoop(more func(k int) bool) {
	var next atomic.Int64
	var senders sync.WaitGroup
	for range 2 {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				k := int(next.Add(1) - 1)
				if !more(k) {
					return
				}
				d.ingest(k, true)
			}
		}()
	}
	senders.Wait()
}

// saturatePhase is the closed loop for the phase length. It measures the
// server's CPU per report counted (the ingested_total delta once the
// queue has drained), and throughput: those reports over the time to
// drain. It adds what it measured to r.
func (d *driver) saturatePhase(r *satResult) error {
	w := d.cfg.w
	st0, err := d.stats()
	if err != nil {
		return err
	}
	pid := d.srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	acked0 := d.acked.Load()
	start := now()
	end := start.Add(d.cfg.phase)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var seals, reads int
	bg.Add(1)
	go func() {
		defer bg.Done()
		seals = periodic(start, start.Add(time.Hour), w.satSealEvery, 0, nil, stop, d.seal)
	}()
	if w.satReads {
		bg.Add(1)
		go func() {
			defer bg.Done()
			reads = periodic(start, start.Add(time.Hour), w.satSealEvery, w.satSealEvery/2, nil, stop, d.read)
		}()
	}
	d.closedLoop(func(int) bool { return now().Before(end) })
	close(stop)
	bg.Wait()
	st1, err := d.waitIngested(st0.IngestedTotal + d.acked.Load() - acked0)
	if err != nil {
		return fmt.Errorf("conservation after the saturate phase: %w", err)
	}
	r.elapsed += since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	r.cpu += cpu1 - cpu0
	r.reports += st1.IngestedTotal - st0.IngestedTotal
	r.seals += seals
	r.reads += reads
	if gets := st1.BufPoolHits + st1.BufPoolMisses; gets > 0 {
		r.pool = float64(st1.BufPoolHits) / float64(gets)
	}
	return nil
}

// boot starts a server, replacing the current one. With a data
// directory the server is durable and fsyncs only at seals; without one
// it keeps its state in memory. Other serve flags stay at their defaults.
func (d *driver) boot(dataDir string) (time.Duration, error) {
	if d.srv != nil {
		d.srv.stop()
		d.srv = nil
	}
	w := d.cfg.w
	args := []string{"-protocol", w.protocol, "-d", strconv.Itoa(w.d),
		"-epsilon", strconv.FormatFloat(epsilon, 'g', -1, 64)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync-every", "-1")
	}
	srv, setup, err := startServer(d.c, d.cfg.serverBin, d.cfg.workDir, args)
	if err != nil {
		return 0, err
	}
	d.srv = srv
	return setup, nil
}

// liveRun is what a run against the server measured.
type liveRun struct {
	setups           []float64 // seconds
	rate             rateSamples
	seals            sealSamples
	sat              satResult
	depth            []float64 // traced runs: queue depth sampled every 100 ms
	ingests, retries int64
}

// cpuPerReport is the server's CPU time per counted report in the
// saturate phase, in ns.
func (lr liveRun) cpuPerReport() float64 {
	return float64(lr.sat.cpu.Nanoseconds()) / float64(lr.sat.reports)
}

// run executes the workload's phases: set-up, then blocks cycles of
// rate, seal and saturate, then verify. A correctness failure is
// returned as verifyErr; err is any other failure.
//
// The measured phases run against an in-memory server. A durable server
// fsyncs at every seal, and this host's shared disk swings fsync latency
// several-fold from one minute to the next; behind it, seal latency and
// throughput measured the disk, not the program. Durable costs are
// measured where the disk is the point: replay in crash-replay's set-up,
// and the persist stages of the traced run.
func (d *driver) run() (lr liveRun, verifyErr, err error) {
	defer func() {
		if d.srv != nil {
			d.srv.stop()
		}
	}()
	if d.cfg.w.crashFill > 0 {
		if lr.setups, verifyErr, err = d.crashSetup(); err != nil || verifyErr != nil {
			return lr, verifyErr, err
		}
		d.acked.Store(0) // a fresh server counts from zero
		if _, err := d.boot(""); err != nil {
			return lr, nil, err
		}
	} else {
		for range coldBoots {
			setup, err := d.boot("")
			if err != nil {
				return lr, nil, err
			}
			lr.setups = append(lr.setups, setup.Seconds())
		}
	}

	// One seal before the load, so window reads always find an epoch.
	if !d.seal() {
		return lr, nil, errors.New("first seal failed")
	}
	stopSampler := d.sampleDepth(&lr.depth)
	defer stopSampler()
	for b := range blocks {
		d.ratePhase(b, &lr.rate)
		if _, err := d.waitIngested(d.acked.Load()); err != nil {
			return lr, fmt.Errorf("conservation after the rate phase: %w", err), nil
		}
		if err := d.sealPhase(&lr.seals); err != nil {
			return lr, err, nil
		}
		if err := d.saturatePhase(&lr.sat); err != nil {
			return lr, err, nil
		}
	}
	stopSampler()
	lr.ingests, lr.retries = d.ingests.Load(), d.retries.Load()
	return lr, d.verify(), nil
}

// crashSetup is crash-replay's set-up. A durable server takes a fixed
// fill on the closed loop, with no seal, so its WAL holds exactly the
// fill. It is then SIGKILLed and rebooted on the same directory
// replayBoots times; each reboot is timed from spawn to the first
// /v1/stats 200, so set-up time is WAL replay. The rebooted server must
// count exactly the acknowledged reports.
func (d *driver) crashSetup() (setups []float64, verifyErr, err error) {
	dir := filepath.Join(d.cfg.workDir, "data")
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover only costs disk
	if _, err := d.boot(dir); err != nil {
		return nil, nil, err
	}
	d.closedLoop(func(k int) bool { return k < d.cfg.w.crashFill })
	if _, err := d.waitIngested(d.acked.Load()); err != nil {
		return nil, fmt.Errorf("conservation after the fill: %w", err), nil
	}
	for range replayBoots {
		// SIGKILL, then flush what the killed server wrote, so that the
		// timed reboot does not race the kernel writing the fill back.
		d.srv.stop()
		d.srv = nil
		if err := syncFiles(dir); err != nil {
			return nil, nil, err
		}
		setup, err := d.boot(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("reboot after SIGKILL: %w", err)
		}
		setups = append(setups, setup.Seconds())
	}
	if _, err := d.waitIngested(d.acked.Load()); err != nil {
		return nil, fmt.Errorf("conservation across the crash: %w", err), nil
	}
	d.srv.stop()
	d.srv = nil
	return setups, nil, nil
}

// sampleDepth samples the server's ingest queue depth every 100 ms into
// dst on traced runs; the returned function stops the sampler and may be
// called more than once.
func (d *driver) sampleDepth(dst *[]float64) func() {
	if !d.cfg.trace {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := now()
		periodic(start, start.Add(time.Hour), 100*time.Millisecond, 0, nil, stop, func() bool {
			if st, err := d.stats(); err == nil {
				*dst = append(*dst, float64(st.QueueDepth))
			}
			return true
		})
	}()
	return sync.OnceFunc(func() {
		close(stop)
		<-done
	})
}

// verify is the correctness gate. Every acknowledged report must be
// counted exactly once (crashSetup checks the same across the crash).
// Then a fixed verification set is sealed into an epoch of its own, and
// the server's window-1 estimate must equal, bit for bit, the unbiased
// in-process fold of that set and Recover's output on it.
func (d *driver) verify() error {
	if _, err := d.waitIngested(d.acked.Load()); err != nil {
		return fmt.Errorf("conservation: %w", err)
	}
	if !d.seal() {
		return errors.New("seal before the verification set failed")
	}
	pr := d.in.proto.Params()
	counts := make([]int64, pr.Domain)
	var total int64
	var wantTargets []int
	switch d.cfg.w.lane {
	case reportLane:
		acc, err := ldp.NewAccumulator(pr.Domain)
		if err != nil {
			return err
		}
		for _, f := range d.in.verify {
			if err := d.post("/v1/reports", f); err != nil {
				return err
			}
			if err := acc.AddBatchFrame(f); err != nil {
				return err
			}
		}
		copy(counts, acc.Counts())
		total = acc.Total()
	case partialLane:
		wantTargets = d.in.targets
		for _, p := range d.in.verifyPartials {
			f, err := stamp(p, d.wm.get())
			if err != nil {
				return err
			}
			if err := d.post("/v1/partial", f); err != nil {
				return err
			}
			for v, c := range p.Counts {
				counts[v] += c
			}
			total += p.Users
		}
	}
	d.acked.Add(total)
	if _, err := d.waitIngested(d.acked.Load()); err != nil {
		return fmt.Errorf("conservation of the verification set: %w", err)
	}
	if !d.seal() {
		return errors.New("seal of the verification set failed")
	}
	var est estimateDoc
	if err := d.c.getJSON(d.srv.base+"/v1/estimate?window=1", &est); err != nil {
		return err
	}
	return checkEstimate(&est, counts, total, pr, wantTargets)
}

// post sends one verification frame, which must be accepted.
func (d *driver) post(path string, body []byte) error {
	code, msg, err := d.c.do(http.MethodPost, d.srv.base+path, body)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("POST %s: %d %s", path, code, msg)
	}
	return nil
}

// checkEstimate compares a served window-1 estimate with the in-process
// computation over the epoch's counts. With wantTargets set, LDPRecover*
// must have engaged on exactly those targets.
func checkEstimate(est *estimateDoc, counts []int64, total int64, pr ldp.Params, wantTargets []int) error {
	if est.Epochs != 1 || est.Total != total {
		return fmt.Errorf("window-1 estimate covers %d epochs / %d reports, want 1 / %d", est.Epochs, est.Total, total)
	}
	poisoned, err := ldp.Unbias(counts, total, pr)
	if err != nil {
		return err
	}
	if i := firstDiff(est.Poisoned, poisoned); i >= 0 {
		return fmt.Errorf("poisoned estimate differs from the in-process fold at item %d", i)
	}
	rec, err := core.Recover(poisoned, core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain},
		core.Options{Eta: core.DefaultEta, Targets: est.Targets})
	if err != nil {
		return err
	}
	if i := firstDiff(est.Recovered, rec.Frequencies); i >= 0 {
		return fmt.Errorf("recovered estimate differs from Recover at item %d", i)
	}
	if est.PartialKnowledge != rec.PartialKnowledge {
		return fmt.Errorf("partial_knowledge %v, Recover says %v", est.PartialKnowledge, rec.PartialKnowledge)
	}
	if wantTargets != nil && (!est.PartialKnowledge || !slices.Equal(est.Targets, wantTargets)) {
		return fmt.Errorf("LDPRecover* engaged=%v on targets %v, want the MGA targets %v",
			est.PartialKnowledge, est.Targets, wantTargets)
	}
	return nil
}

// firstDiff returns the first index where got and want differ bit for
// bit (a length mismatch differs at the shorter length), or -1.
func firstDiff(got, want []float64) int {
	for i := range min(len(got), len(want)) {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

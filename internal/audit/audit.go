// Package audit empirically certifies the privacy and robustness claims
// the rest of the repository makes analytically. The privacy auditor
// replays a protocol's real client paths — itemwise Perturb, the
// PerturbAllInto bulk arena path, and the SimulateGenuineCounts
// count-level path — over a pair of neighboring inputs and measures how well an
// adversary can distinguish them, reporting an empirical privacy budget
// eps_emp with exact Clopper-Pearson confidence bounds. The recovery
// auditor (recovery.go) replays the streamed MGA scenario across an
// attacker-strength grid and bounds the rate at which the recovery
// pipeline's error guarantees are violated.
//
// The methodology follows the lower-bound convention of the LDP-Audit
// line of work: eps_emp is a statistically certified LOWER bound on the
// true distinguishing power, so for a correctly implemented ε-LDP
// mechanism eps_emp <= ε holds with the configured confidence, and
// eps_emp > ε is a certified privacy violation, not sampling noise.
package audit

import (
	"fmt"
	"math"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// Path selects which client code path the auditor drives.
type Path int

// The three auditable report paths.
const (
	// PathItemwise calls Protocol.Perturb once per user.
	PathItemwise Path = iota
	// PathBulk calls ldp.PerturbAllInto over a population arena.
	PathBulk
	// PathCount calls Protocol.SimulateGenuineCounts for a single user and
	// observes the support-count vector — the aggregation-side view.
	PathCount
)

// AllPaths lists the auditable paths in display order.
var AllPaths = []Path{PathItemwise, PathBulk, PathCount}

// String returns the path label used in reports.
func (p Path) String() string {
	switch p {
	case PathItemwise:
		return "itemwise"
	case PathBulk:
		return "bulk"
	case PathCount:
		return "count"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// ParsePath maps a label back to a Path.
func ParsePath(s string) (Path, error) {
	for _, p := range AllPaths {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("audit: unknown path %q", s)
}

// Protocols lists the auditable protocol names. SUE rides along with the
// paper's three because it shares the unary sampler with OUE and the
// audit is how we prove the shared path leaks nothing extra.
var Protocols = []string{"GRR", "OUE", "SUE", "OLH"}

// BuildProtocol constructs a named protocol over domain d at budget eps.
func BuildProtocol(name string, d int, eps float64) (ldp.Protocol, error) {
	switch name {
	case "GRR":
		return ldp.NewGRR(d, eps)
	case "OUE":
		return ldp.NewOUE(d, eps)
	case "SUE":
		return ldp.NewSUE(d, eps)
	case "OLH":
		return ldp.NewOLH(d, eps)
	default:
		return nil, fmt.Errorf("audit: unknown protocol %q", name)
	}
}

// v0 and v1 are the neighboring inputs every audit compares.
const v0, v1 = 0, 1

// Config parameterizes one privacy audit.
type Config struct {
	// Protocol names the mechanism under audit (see Protocols).
	Protocol string
	// Epsilon is the claimed privacy budget.
	Epsilon float64
	// Domain is the item-domain size (default 16); it must hold both
	// neighboring inputs, items 0 and 1.
	Domain int
	// Trials is the number of reports observed per neighboring input per
	// path.
	Trials int64
	// Confidence is the Clopper-Pearson confidence level for every
	// interval (default 0.99).
	Confidence float64
	// Slack is the gate allowance: a path passes iff
	// EpsEmp <= Epsilon + Slack.
	Slack float64
	// Seed drives the audit deterministically.
	Seed uint64
	// Paths restricts the audit to a subset of AllPaths (nil: all).
	Paths []Path
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 100000
	}
	if c.Confidence == 0 {
		c.Confidence = 0.99
	}
	if c.Domain == 0 {
		c.Domain = 16
	}
	if len(c.Paths) == 0 {
		c.Paths = AllPaths
	}
	return c
}

func (c Config) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("audit: %d trials", c.Trials)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("audit: confidence %v outside (0,1)", c.Confidence)
	}
	if c.Domain < 2 {
		return fmt.Errorf("audit: inputs (%d,%d) outside domain %d", v0, v1, c.Domain)
	}
	return nil
}

// Event is one cell of the support-projection distinguisher: the counts
// of reports landing in the event under each neighboring input.
type Event struct {
	// Name labels the event by its (Supports(v0), Supports(v1)) pair.
	Name string `json:"name"`
	// CountV0 and CountV1 are occurrences under input v0 resp. v1.
	CountV0 int64 `json:"count_v0"`
	CountV1 int64 `json:"count_v1"`
}

// Result is the audit verdict for one protocol x path cell.
type Result struct {
	Protocol string  `json:"protocol"`
	Path     string  `json:"path"`
	Epsilon  float64 `json:"epsilon"`
	Trials   int64   `json:"trials"`
	// Events are the four distinguisher cells.
	Events [4]Event `json:"events"`
	// EpsEmp is the certified empirical budget: the Clopper-Pearson
	// lower bound on the best likelihood ratio any event achieves, i.e.
	// with the configured confidence the mechanism's true budget is at
	// least EpsEmp.
	EpsEmp float64 `json:"eps_emp"`
	// EpsPoint is the plug-in point estimate of the same quantity.
	EpsPoint float64 `json:"eps_point"`
	// EpsHi is the optimistic upper end ln(CP_hi/CP_lo) over events both
	// inputs reached; EpsHiUnbounded marks that no event overlapped (the
	// distinguisher separated the inputs outright) and EpsHi is
	// meaningless.
	EpsHi          float64 `json:"eps_hi"`
	EpsHiUnbounded bool    `json:"eps_hi_unbounded,omitempty"`
	// MaxEvent names the event and direction realizing EpsEmp.
	MaxEvent string `json:"max_event"`
	// Pass is the gate verdict: EpsEmp <= Epsilon + Slack.
	Pass bool `json:"pass"`
}

// Verdict renders the gate outcome for logs.
func (r Result) Verdict() string {
	if r.Pass {
		return "PASS"
	}
	return fmt.Sprintf("VIOLATION at event %s", r.MaxEvent)
}

var eventNames = [4]string{"(1,1)", "(1,0)", "(0,1)", "(0,0)"}

// eventIndex projects a report onto the four (Supports(v0), Supports(v1))
// cells.
func eventIndex(s0, s1 bool) int {
	switch {
	case s0 && s1:
		return 0
	case s0:
		return 1
	case s1:
		return 2
	default:
		return 3
	}
}

// Run audits every requested path of the configured protocol and returns
// one Result per path.
func Run(cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	proto, err := BuildProtocol(cfg.Protocol, cfg.Domain, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(cfg.Paths))
	for _, path := range cfg.Paths {
		res, err := auditPath(proto, path, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// auditPath observes cfg.Trials reports per neighboring input through
// one client path and certifies the distinguisher's advantage.
func auditPath(proto ldp.Protocol, path Path, cfg Config) (Result, error) {
	// Distinct deterministic streams per (path, input) so adding a path
	// to the sweep never perturbs another path's draws.
	salt := uint64(path+1) * 0x9e3779b97f4a7c15
	c0, err := observe(proto, path, rng.New(cfg.Seed^salt), v0, cfg)
	if err != nil {
		return Result{}, err
	}
	c1, err := observe(proto, path, rng.New(cfg.Seed^salt^0x5851f42d4c957f2d), v1, cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Protocol: proto.Name(),
		Path:     path.String(),
		Epsilon:  cfg.Epsilon,
		Trials:   cfg.Trials,
	}
	for i := range res.Events {
		res.Events[i] = Event{Name: eventNames[i], CountV0: c0[i], CountV1: c1[i]}
	}
	if err := certify(&res, cfg); err != nil {
		return Result{}, err
	}
	res.Pass = res.EpsEmp <= cfg.Epsilon+cfg.Slack
	return res, nil
}

// certify fills the eps fields of res from its event counts: for every
// event and both directions, bound the log likelihood ratio
// ln(P[event|v_a] / P[event|v_b]) with Clopper-Pearson intervals and
// keep the largest certified lower bound.
func certify(res *Result, cfg Config) error {
	n := res.Trials
	hiSeen := false
	for i, ev := range res.Events {
		lo0, hi0, err := stats.ClopperPearson(ev.CountV0, n, cfg.Confidence)
		if err != nil {
			return err
		}
		lo1, hi1, err := stats.ClopperPearson(ev.CountV1, n, cfg.Confidence)
		if err != nil {
			return err
		}
		for _, dir := range [2]struct {
			lo, hi, a, b float64
			label        string
		}{
			{lo0, hi1, float64(ev.CountV0), float64(ev.CountV1), eventNames[i] + " v0/v1"},
			{lo1, hi0, float64(ev.CountV1), float64(ev.CountV0), eventNames[i] + " v1/v0"},
		} {
			if dir.lo > 0 {
				// hi of the denominator is always > 0, so the certified
				// bound is finite whenever the numerator was observed.
				if emp := math.Log(dir.lo / dir.hi); emp > res.EpsEmp {
					res.EpsEmp = emp
					res.MaxEvent = dir.label
				}
			}
			if dir.a > 0 && dir.b > 0 {
				if pt := math.Log(dir.a / dir.b); pt > res.EpsPoint {
					res.EpsPoint = pt
				}
			}
		}
		// Optimistic upper end over events both inputs reached.
		if lo1 > 0 && ev.CountV0 > 0 {
			hiSeen = true
			if v := math.Log(hi0 / lo1); v > res.EpsHi {
				res.EpsHi = v
			}
		}
		if lo0 > 0 && ev.CountV1 > 0 {
			hiSeen = true
			if v := math.Log(hi1 / lo0); v > res.EpsHi {
				res.EpsHi = v
			}
		}
	}
	if !hiSeen {
		res.EpsHi = 0
		res.EpsHiUnbounded = true
	}
	return nil
}

// observe drives one client path with every user holding item v and
// tallies the support-projection events.
func observe(proto ldp.Protocol, path Path, r *rng.Rand, v int, cfg Config) ([4]int64, error) {
	var counts [4]int64
	switch path {
	case PathItemwise:
		for t := int64(0); t < cfg.Trials; t++ {
			rep, err := proto.Perturb(r, v)
			if err != nil {
				return counts, err
			}
			counts[eventIndex(rep.Supports(v0), rep.Supports(v1))]++
		}
	case PathBulk:
		// Chunked so the arena stays modest at large trial counts; the
		// scratch is reused across chunks exactly like a steady-state
		// pipeline reuses it across epochs.
		scratch := &ldp.PerturbScratch{}
		trueCounts := make([]int64, cfg.Domain)
		const chunk = 1 << 15
		for left := cfg.Trials; left > 0; left -= chunk {
			trueCounts[v] = min(left, chunk)
			reports, err := ldp.PerturbAllInto(proto, r, trueCounts, scratch)
			if err != nil {
				return counts, err
			}
			for _, rep := range reports {
				counts[eventIndex(rep.Supports(v0), rep.Supports(v1))]++
			}
		}
	case PathCount:
		trueCounts := make([]int64, cfg.Domain)
		trueCounts[v] = 1
		for t := int64(0); t < cfg.Trials; t++ {
			out, err := proto.SimulateGenuineCounts(r, trueCounts)
			if err != nil {
				return counts, err
			}
			counts[eventIndex(out[v0] > 0, out[v1] > 0)]++
		}
	default:
		return counts, fmt.Errorf("audit: unknown path %d", int(path))
	}
	return counts, nil
}

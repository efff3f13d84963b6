package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The root lease is the failover tier's split-brain guard for the
// shared root data directory. Whoever merges tallies for the cluster
// holds the lease: a file naming the owner, kept fresh by heartbeat
// touches. A standby promotes only after the lease has gone stale (the
// old root stopped heartbeating for longer than the promotion
// threshold), and a restarting root refuses a directory whose lease a
// different owner holds fresh — two mergers advancing the same
// watermark would hand frontends acknowledgements for state only one of
// them persisted.
//
// The guard is cooperative, not a distributed lock: it relies on the
// shared filesystem's rename atomicity and on both contenders observing
// the same clock within the staleness threshold. DESIGN.md §7 spells
// out the caveat.
const leaseName = "root.lease"

// Lease is a held root lease.
type Lease struct {
	dir   string
	owner string
}

// LeaseInfo describes the lease file's current state.
type LeaseInfo struct {
	// Owner is the node id written by the holder; empty when no lease
	// file exists.
	Owner string
	// Age is how long ago the holder last heartbeat.
	Age time.Duration
}

// InspectLease reads dir's lease without taking it. A missing lease
// returns a zero LeaseInfo and no error.
func InspectLease(dir string) (LeaseInfo, error) {
	path := filepath.Join(dir, leaseName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return LeaseInfo{}, nil
	}
	if err != nil {
		return LeaseInfo{}, err
	}
	info, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return LeaseInfo{}, nil
	}
	if err != nil {
		return LeaseInfo{}, err
	}
	//ldplint:allow nowallclock lease age is wall-clock liveness by definition
	return LeaseInfo{Owner: strings.TrimSpace(string(data)), Age: time.Since(info.ModTime())}, nil
}

// AcquireLease takes dir's root lease for owner. It refuses while a
// different owner's lease is fresher than staleAfter; a stale foreign
// lease (its holder stopped heartbeating) or the owner's own lease is
// replaced. The caller heartbeats with Refresh at a period well under
// staleAfter.
func AcquireLease(dir string, owner string, staleAfter time.Duration) (*Lease, error) {
	if owner == "" {
		return nil, errors.New("persist: lease without an owner id")
	}
	if staleAfter <= 0 {
		return nil, errors.New("persist: lease without a staleness threshold")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cur, err := InspectLease(dir)
	if err != nil {
		return nil, err
	}
	if cur.Owner != "" && cur.Owner != owner && cur.Age < staleAfter {
		return nil, fmt.Errorf("persist: %s is leased to %q (heartbeat %v ago, staleness threshold %v); "+
			"refusing to merge into a directory another root is serving", dir, cur.Owner, cur.Age.Round(time.Millisecond), staleAfter)
	}
	l := &Lease{dir: dir, owner: owner}
	if err := l.write(); err != nil {
		return nil, err
	}
	return l, nil
}

// write atomically (re)writes the lease file, stamping a fresh mtime.
func (l *Lease) write() error {
	path := filepath.Join(l.dir, leaseName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(l.owner+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Refresh is the heartbeat: it re-asserts ownership and freshens the
// lease's age. Finding another owner's name in the file means this
// holder was presumed dead and superseded — the caller must stop
// merging immediately rather than fight for the file.
func (l *Lease) Refresh() error {
	cur, err := InspectLease(l.dir)
	if err != nil {
		return err
	}
	if cur.Owner != "" && cur.Owner != l.owner {
		return fmt.Errorf("persist: lease on %s was taken over by %q; this root was superseded and must stop", l.dir, cur.Owner)
	}
	return l.write()
}

// Release drops the lease if this holder still owns it, letting a
// successor acquire without waiting out the staleness threshold.
func (l *Lease) Release() error {
	cur, err := InspectLease(l.dir)
	if err != nil {
		return err
	}
	if cur.Owner != l.owner {
		return nil // superseded already; nothing of ours to remove
	}
	err = os.Remove(filepath.Join(l.dir, leaseName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

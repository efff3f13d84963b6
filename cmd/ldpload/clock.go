package main

import "time"

// Every clock read and timed wait in the load driver goes through these
// helpers. Measuring wall time is the driver's whole job, so each call
// site carries the nowallclock allowance; nothing here feeds a value the
// server computes.

// now returns the current time.
func now() time.Time {
	//ldplint:allow nowallclock the load driver measures wall-clock latency
	return time.Now()
}

// since returns the time elapsed since t.
func since(t time.Time) time.Duration {
	//ldplint:allow nowallclock the load driver measures wall-clock latency
	return time.Since(t)
}

// sleep pauses for d: backoff between retries and polling intervals.
func sleep(d time.Duration) {
	//ldplint:allow nowallclock retry backoff and polling in the load driver
	time.Sleep(d)
}

// waitUntil pauses until t, the due time of the next scheduled request,
// or until stop closes, reporting whether t was reached. A nil stop
// never closes.
func waitUntil(t time.Time, stop <-chan struct{}) bool {
	//ldplint:allow nowallclock scheduled requests wait for their due time
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

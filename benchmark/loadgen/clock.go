package loadgen

import "time"

// Clock is the time source of the pacer and the loops. The benchmark uses
// RealClock; tests inject a fake so they never wait and never flake.
type Clock interface {
	Now() time.Time
	// SleepUntil blocks until t or later. It may return late; it must not
	// return early.
	SleepUntil(t time.Time)
}

// RealClock reads the monotonic clock and sleeps with the platform's
// precise sleep (see sleep_linux.go).
type RealClock struct{}

func (RealClock) Now() time.Time { return time.Now() }

func (RealClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		preciseSleep(d)
	}
}

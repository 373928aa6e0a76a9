//go:build !linux

package loadgen

import "time"

// PreciseSleep is false where pacing falls back to time.Sleep; the
// benchmark reports generator lag so the coarser pacing is visible.
const PreciseSleep = false

func preciseSleep(d time.Duration) { time.Sleep(d) }

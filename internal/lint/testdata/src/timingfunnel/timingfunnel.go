// Package timingfunnel is the timing-funnel fixture: raw time.Now calls
// outside internal/obs (the clock funnel) are violations; other uses of
// package time are fine.
package timingfunnel

import "time"

// bad is the seeded violation: a raw time.Now call outside the funnel.
func bad() time.Time {
	return time.Now()
}

// good is the near-miss: durations and sleeps are not timing reads.
func good() {
	time.Sleep(5 * time.Millisecond)
}

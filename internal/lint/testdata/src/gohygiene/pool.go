// This file is the fixture's sanctioned spawn point: go statements are
// allowed, but each spawned task must observe a cooperative-stop signal.
//
//lint:go-allowed fixture worker pool; tasks observe the stop flag
package sqldb

import "sync/atomic"

// fanOutGood is the near-miss: a sanctioned spawn whose task checks the
// atomic stop flag before working.
func fanOutGood(n int, task func(int)) {
	var stop atomic.Bool
	for i := 0; i < n; i++ {
		go func(i int) {
			if stop.Load() {
				return
			}
			task(i)
		}(i)
	}
}

// fanOutDeaf is the second seeded violation: the file sanctions spawning,
// but this task ignores every stop signal.
func fanOutDeaf(task func()) {
	go func() {
		task()
	}()
}

// fanOutRange is the range-over-channel near-miss: the task runs once per
// value received on done and stops when its owner closes the channel.
func fanOutRange(done <-chan struct{}, task func()) {
	go func() {
		for range done {
			task()
		}
	}()
}

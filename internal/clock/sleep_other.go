//go:build !linux

package clock

import "time"

// sleep is time.Sleep where there is no timerfd: a wait may last up to the
// platform's timer quantum past d.
func sleep(d time.Duration) { time.Sleep(d) }

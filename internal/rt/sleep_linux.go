package rt

import (
	"syscall"
	"time"
)

// sleep blocks the calling goroutine for d in nanosleep(2), which the
// kernel ends within tens of microseconds of the deadline; time.Sleep
// shares the runtime's timers and their millisecond rounding.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// A signal cut it short; ts now holds what is left.
	}
}

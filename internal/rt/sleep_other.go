//go:build !linux

package rt

import "time"

// sleep blocks the calling goroutine for d, as precisely as the runtime's
// timers allow.
func sleep(d time.Duration) { time.Sleep(d) }

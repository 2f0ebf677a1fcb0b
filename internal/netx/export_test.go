package netx

import (
	"testing"
	"time"
)

// ShortenStallTimeout makes transports Listened by t after this call
// declare a peer stalled after d without write progress, instead of
// seconds.
func ShortenStallTimeout(t *testing.T, d time.Duration) {
	old := stallTimeout
	stallTimeout = d
	t.Cleanup(func() { stallTimeout = old })
}

// MaxFrame is the inbound frame bound.
const MaxFrame = maxFrame

// ReadBuffer is the largest inbound frame decoded in place.
const ReadBuffer = readBuffer

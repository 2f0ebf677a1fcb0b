package netx

import (
	"testing"
	"time"

	"repro/internal/obs"
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

// Metrics returns the bundle the transport counts into, private or not.
func (t *Transport) Metrics() *obs.WireMetrics { return t.cfg.Metrics }

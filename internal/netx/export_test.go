package netx

import (
	"context"
	"net"
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

// WatchDials makes transports Listened by t after this call report
// every dial attempt of their links to watch, with the address and the
// moment it starts, before dialling as usual.
func WatchDials(t *testing.T, watch func(addr string, at time.Time)) {
	old := dialTCP
	dialTCP = func(ctx context.Context, timeout time.Duration, addr string) (net.Conn, error) {
		watch(addr, time.Now())
		return old(ctx, timeout, addr)
	}
	t.Cleanup(func() { dialTCP = old })
}

// LengthenMinBackoff makes transports Listened by t after this call
// wait d after a link's first failed dial, doubling from there, instead
// of milliseconds.
func LengthenMinBackoff(t *testing.T, d time.Duration) {
	old := minBackoff
	minBackoff = d
	t.Cleanup(func() { minBackoff = old })
}

// MinBackoff and MaxBackoff are the first and the largest wait after a
// failed dial.
var MinBackoff, MaxBackoff = minBackoff, maxBackoff

// MaxFrame is the inbound frame bound.
const MaxFrame = maxFrame

// ReadBuffer is the largest inbound frame decoded in place.
const ReadBuffer = readBuffer

// Metrics returns the bundle the transport counts into, private or not.
func (t *Transport) Metrics() *obs.WireMetrics { return t.cfg.Metrics }

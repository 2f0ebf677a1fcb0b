// Package netxtest hands tests the loopback addresses of transports and
// listeners that must be known before anything listens on them: every
// netx link dials its peer at boot, so a test builds the whole address
// map first and starts the processes after.
//
// The ports lie BELOW the kernel's ephemeral range rather than coming
// from ":0". A port ":0" returns is an ephemeral one: the kernel is free
// to give it to an outgoing connection — any link's boot dial — the
// moment the reserving listener closes, before the process it was meant
// for binds it. Nothing allocates a static port behind a test's back;
// another program binding the same one explicitly in that window is a
// race a test accepts.
package netxtest

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Addrs returns n loopback addresses no earlier call in this process
// handed out, each checked free by binding it; the listeners of one call
// stay open until it has them all.
func Addrs(t testing.TB, n int) []string {
	t.Helper()
	reservedMu.Lock()
	defer reservedMu.Unlock()
	span := ephemeralFloor() - firstStaticPort
	if span < 10*n {
		t.Fatalf("netxtest: ephemeral range starts at %d, no room for static ports above %d", ephemeralFloor(), firstStaticPort)
	}
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 100*n {
			t.Fatalf("netxtest: found only %d of %d free ports", len(addrs), n)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", firstStaticPort+rand.IntN(span))
		if reserved[addr] {
			continue
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue // taken; draw again
		}
		defer ln.Close()
		reserved[addr] = true
		addrs = append(addrs, addr)
	}
	return addrs
}

// Addr is Addrs(t, 1)[0].
func Addr(t testing.TB) string {
	t.Helper()
	return Addrs(t, 1)[0]
}

var (
	reservedMu sync.Mutex
	reserved   = make(map[string]bool)
)

// firstStaticPort is the bottom of the range Addrs draws from; the top is
// wherever the kernel's ephemeral range begins.
const firstStaticPort = 10000

// ephemeralFloor is the lowest port the kernel hands to outgoing
// connections and to listeners on port 0.
func ephemeralFloor() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if f := strings.Fields(string(b)); err == nil && len(f) == 2 {
		if lo, err := strconv.Atoi(f[0]); err == nil {
			return lo
		}
	}
	return 32768 // the Linux default
}

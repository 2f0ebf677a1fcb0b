package netx_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/netx/netxtest"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

// startMesh brings up n transports on loopback. Their addresses are
// reserved first (netxtest) so every transport knows the full address
// map up front.
func startMesh(t *testing.T, n int, recv map[types.ProcID]netx.RecvFunc) (map[types.ProcID]*netx.Transport, map[types.ProcID]string) {
	t.Helper()
	addrs := make(map[types.ProcID]string, n)
	for i := 1; i <= n; i++ {
		addrs[types.ProcID(i)] = netxtest.Addr(t)
	}
	transports := make(map[types.ProcID]*netx.Transport, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		transports[id] = listen(t, netx.Config{Self: id, Addrs: addrs, Recv: recv[id]})
	}
	return transports, addrs
}

// listen starts a transport that is closed when the test ends.
func listen(t *testing.T, cfg netx.Config) *netx.Transport {
	t.Helper()
	if cfg.Recv == nil {
		cfg.Recv = func(types.ProcID, proto.Message) {}
	}
	tr, err := netx.Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// silentPeer listens on loopback, accepts every connection and never
// reads from one. Accepted connections are reported on the channel.
func silentPeer(t *testing.T) (string, <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 16) // more than any test dials
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			select {
			case accepted <- c:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String(), accepted
}

func wireMetrics(peers ...types.ProcID) *obs.WireMetrics {
	return netx.NewMetrics(obs.NewRegistry(), peers)
}

// sendGarbage dials addr, identifies as claim and writes one frame that
// does not decode.
func sendGarbage(t *testing.T, addr string, claim types.ProcID) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint32(hello[0:], 4) // frame length
	binary.LittleEndian.PutUint32(hello[4:], uint32(claim))
	garbage := []byte{3, 0, 0, 0, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(append(hello, garbage...)); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds; the deadline only keeps a broken
// build from hanging.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func initMsg(inst types.Instance, val string) proto.Message {
	return proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: inst, Origin: 1, Val: types.Value(val)}
}

func TestPointToPointDelivery(t *testing.T) {
	type recvd struct {
		from types.ProcID
		m    proto.Message
	}
	var mu sync.Mutex
	var got []recvd
	recv := map[types.ProcID]netx.RecvFunc{
		2: func(from types.ProcID, m proto.Message) {
			mu.Lock()
			got = append(got, recvd{from, m})
			mu.Unlock()
		},
	}
	trs, _ := startMesh(t, 2, recv)
	msg := proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModDecide}, Origin: 1, Val: "hello"}
	if err := trs[1].Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the message arrives", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].from != 1 || got[0].m != msg {
		t.Fatalf("got %+v", got[0])
	}
	// The writer counts a frame once it is written, which may trail the
	// delivery by a moment.
	waitFor(t, "Sent() == 1", func() bool { return trs[1].Sent() == 1 })
}

func TestMalformedFramesRejected(t *testing.T) {
	recv := map[types.ProcID]netx.RecvFunc{
		2: func(types.ProcID, proto.Message) { t.Error("garbage delivered") },
	}
	trs, addrs := startMesh(t, 2, recv)
	sendGarbage(t, addrs[2], 1) // a valid handshake, then garbage
	waitFor(t, "the garbage frame is counted as rejected", func() bool { return trs[2].Rejected() > 0 })
}

func TestUnknownPeerRejected(t *testing.T) {
	var received atomic.Bool
	recv := map[types.ProcID]netx.RecvFunc{
		2: func(types.ProcID, proto.Message) { received.Store(true) },
	}
	_, addrs := startMesh(t, 2, recv)
	conn, err := net.Dial("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint32(hello[0:], 4)
	binary.LittleEndian.PutUint32(hello[4:], 99) // unknown id
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	// The connection should be dropped; any frame we write goes nowhere.
	time.Sleep(50 * time.Millisecond)
	if received.Load() {
		t.Fatal("message from unknown peer delivered")
	}
}

// TestHelloLengthChecked: a dialer whose first frame announces anything
// but the 4-byte hello is disconnected at once — the node does not wait
// for (or allocate) the maxFrame body it announced.
func TestHelloLengthChecked(t *testing.T) {
	_, addrs := startMesh(t, 2, nil)
	conn, err := net.Dial("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], netx.MaxFrame)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the node kept the connection open, waiting for a maxFrame hello")
	}
	if err == nil {
		t.Fatal("the node wrote to an unidentified dialer")
	}
}

// TestCountsAreWireSeries: a transport's Sent, Received and Rejected are
// its wire series summed, both when a registry exports them and when
// Metrics is nil and the transport counts into private cells.
func TestCountsAreWireSeries(t *testing.T) {
	reg := obs.NewRegistry()
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	var got atomic.Int64
	recv := func(types.ProcID, proto.Message) { got.Add(1) }
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Recv: recv, Metrics: netx.NewMetrics(reg, []types.ProcID{2})})
	b := listen(t, netx.Config{Self: 2, Addrs: addrs, Recv: recv})
	const frames = 40
	for i := 0; i < frames; i++ {
		if err := a.Send(2, initMsg(types.Instance(i), "a")); err != nil {
			t.Fatal(err)
		}
		decide := proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Instance: types.Instance(i), Val: "b"}
		if err := b.Send(1, decide); err != nil {
			t.Fatal(err)
		}
	}
	sendGarbage(t, addrs[1], 2)
	sendGarbage(t, addrs[2], 1)
	waitFor(t, "every frame is counted", func() bool {
		return got.Load() == 2*frames && a.Sent() == frames && b.Sent() == frames &&
			a.Rejected() == 1 && b.Rejected() == 1
	})

	// a exports: its counts are the sums of its series on the exposition.
	snap := reg.Snapshot()
	series := func(prefix string) uint64 {
		var n uint64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
		return n
	}
	for _, c := range []struct {
		what      string
		got, want uint64
	}{
		{"Sent vs frames sent", a.Sent(), series(`minsync_wire_frames_total{dir="sent"`)},
		{"Sent vs peer frames sent", a.Sent(), series(`minsync_wire_peer_frames_total{dir="sent"`)},
		{"Received vs frames recv", a.Received(), series(`minsync_wire_frames_total{dir="recv"`)},
		{"Received vs peer frames recv", a.Received(), series(`minsync_wire_peer_frames_total{dir="recv"`)},
		{"Rejected vs rejected frames", a.Rejected(), series(`minsync_wire_rejected_frames_total`)},
	} {
		if c.got != c.want {
			t.Errorf("registry: %s: %d != %d", c.what, c.got, c.want)
		}
	}

	// b counts into private cells: the same identities hold over them.
	m := b.Metrics()
	var sent, recvd uint64
	for k := 0; k <= int(proto.MsgDecide); k++ {
		sent += m.FramesSent[k].Value()
		recvd += m.FramesRecv[k].Value()
	}
	if b.Sent() != sent || b.Sent() != m.PeerSent[1].Value() || m.FramesSent[proto.MsgDecide].Value() != frames {
		t.Errorf("private: Sent %d, kind series %d, peer series %d", b.Sent(), sent, m.PeerSent[1].Value())
	}
	if b.Received() != recvd || b.Received() != m.PeerRecv[1].Value() || b.Received() != frames {
		t.Errorf("private: Received %d, kind series %d, peer series %d", b.Received(), recvd, m.PeerRecv[1].Value())
	}
	if b.Rejected() != m.Rejected.Value() {
		t.Errorf("private: Rejected %d, series %d", b.Rejected(), m.Rejected.Value())
	}
}

// TestStalledPeerDoesNotBlockSend: a peer that accepts and never reads
// fills its link; Send keeps returning, the healthy peer keeps receiving
// everything, and the stalled link drops its backlog.
func TestStalledPeerDoesNotBlockSend(t *testing.T) {
	netx.ShortenStallTimeout(t, 50*time.Millisecond)
	silent, _ := silentPeer(t)
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t), 3: silent}
	var got atomic.Int64
	listen(t, netx.Config{Self: 2, Addrs: addrs, Recv: func(types.ProcID, proto.Message) { got.Add(1) }})
	wm := wireMetrics(2, 3)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})

	big := initMsg(1, strings.Repeat("x", 64<<10))
	small := initMsg(2, "y")
	var sent int64
	for wm.DroppedStalled.Value() == 0 {
		_ = a.Send(3, big) // queued or refused, but returned
		if err := a.Send(2, small); err != nil {
			t.Fatalf("Send to the healthy peer: %v", err)
		}
		sent++
		waitFor(t, "the healthy peer receives every frame", func() bool { return got.Load() == sent })
	}
	if d := wm.DroppedDown.Value(); d != 0 {
		t.Fatalf("%d frames dropped as down", d)
	}
}

// TestRefusedPeerNotDialedByCaller: Send to a peer that refuses
// connections queues and returns — the dial, and the refusal, happen on
// the link's writer, and frames sent while it backs off are refused
// without dialing.
func TestRefusedPeerNotDialedByCaller(t *testing.T) {
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	wm := wireMetrics(2)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})
	msg := initMsg(1, "v")
	if err := a.Send(2, msg); err != nil {
		t.Fatalf("first Send to a refused peer = %v: the caller dialed", err)
	}
	waitFor(t, "the writer's dial is refused", func() bool { return wm.DroppedDown.Value() > 0 })
	for i := 0; i < 100; i++ {
		_ = a.Send(2, msg)
	}
	if a.Sent() != 0 || wm.Connects.Value() != 0 {
		t.Fatalf("sent %d frames over %d connections to a refused peer", a.Sent(), wm.Connects.Value())
	}
}

// TestBackToBackFrames: 20 000 frames sent as fast as Send returns — what
// the benchmark's loopback harness does — all arrive, in order.
func TestBackToBackFrames(t *testing.T) {
	const frames = 20000
	var next atomic.Int64
	var outOfOrder atomic.Int64
	recv := map[types.ProcID]netx.RecvFunc{
		2: func(_ types.ProcID, m proto.Message) {
			if int64(m.Instance) != next.Add(1) {
				outOfOrder.Add(1)
			}
		},
	}
	trs, _ := startMesh(t, 2, recv)
	val := strings.Repeat("c", 1500) // the size of the harness's 16-command INIT
	for i := 1; i <= frames; i++ {
		if err := trs[1].Send(2, initMsg(types.Instance(i), val)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	waitFor(t, "every frame arrives", func() bool { return next.Load() == frames })
	if n := outOfOrder.Load(); n != 0 {
		t.Fatalf("%d frames out of order", n)
	}
	waitFor(t, "every frame is counted as sent", func() bool { return trs[1].Sent() == frames })
}

// collect records, per receiving process, every message it is handed.
type collect struct {
	mu  sync.Mutex
	got map[types.ProcID][]proto.Message
}

func (c *collect) recv(n int) map[types.ProcID]netx.RecvFunc {
	c.got = make(map[types.ProcID][]proto.Message)
	recv := make(map[types.ProcID]netx.RecvFunc, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		recv[id] = func(_ types.ProcID, m proto.Message) {
			c.mu.Lock()
			c.got[id] = append(c.got[id], m)
			c.mu.Unlock()
		}
	}
	return recv
}

func (c *collect) at(id types.ProcID) []proto.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proto.Message(nil), c.got[id]...)
}

// TestMulticastDeliversToEachPeer: one Multicast to three peers reaches
// each of them as the message that was sent.
func TestMulticastDeliversToEachPeer(t *testing.T) {
	var c collect
	trs, _ := startMesh(t, 4, c.recv(4))
	msg := initMsg(3, strings.Repeat("b", 2000))
	peers := []types.ProcID{2, 3, 4}
	if err := trs[1].Multicast(peers, msg); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		waitFor(t, "every peer receives the message", func() bool { return len(c.at(p)) == 1 })
		if got := c.at(p)[0]; got != msg {
			t.Fatalf("peer %v received %+v", p, got)
		}
	}
	waitFor(t, "three frames are counted as sent", func() bool { return trs[1].Sent() == 3 })
}

// TestMulticastAfterSendInOrder: on one link, frames queued by Send and
// by Multicast arrive in the order they were queued.
func TestMulticastAfterSendInOrder(t *testing.T) {
	const rounds = 500
	var c collect
	trs, _ := startMesh(t, 3, c.recv(3))
	for i := 0; i < rounds; i++ {
		if err := trs[1].Send(2, initMsg(types.Instance(2*i), "send")); err != nil {
			t.Fatal(err)
		}
		if err := trs[1].Multicast([]types.ProcID{2, 3}, initMsg(types.Instance(2*i+1), "multicast")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every frame arrives", func() bool { return len(c.at(2)) == 2*rounds && len(c.at(3)) == rounds })
	for i, m := range c.at(2) {
		if m.Instance != types.Instance(i) {
			t.Fatalf("peer 2's frame %d is instance %v", i, m.Instance)
		}
	}
}

// TestFrameLargerThanReadBuffer: frames at, just past and far past the
// size decoded in place all arrive intact.
func TestFrameLargerThanReadBuffer(t *testing.T) {
	var c collect
	trs, _ := startMesh(t, 2, c.recv(2))
	const header = 28 // wire's fixed header
	sizes := []int{netx.ReadBuffer - header, netx.ReadBuffer - header + 1, 300 << 10}
	for i, size := range sizes {
		if err := trs[1].Send(2, initMsg(types.Instance(i), strings.Repeat("l", size))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every frame arrives", func() bool { return len(c.at(2)) == len(sizes) })
	for i, m := range c.at(2) {
		if m != initMsg(types.Instance(i), strings.Repeat("l", sizes[i])) {
			t.Fatalf("frame %d (%d value bytes) arrived altered", i, sizes[i])
		}
	}
	if trs[2].Rejected() != 0 {
		t.Fatalf("%d frames rejected", trs[2].Rejected())
	}
}

// TestCloseWithBlockedWriter: Close returns while a link's writer is stuck
// writing to a peer that does not read.
func TestCloseWithBlockedWriter(t *testing.T) {
	silent, accepted := silentPeer(t)
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: silent}
	a := listen(t, netx.Config{Self: 1, Addrs: addrs})
	select {
	case <-accepted:
	case <-time.After(30 * time.Second):
		t.Fatal("the writer never connected")
	}
	// One frame goes out first, so the writer has written before the
	// rest arrive: a single writev of all 32 MiB (the whole queue, if the
	// writer runs late) would never finish, and count nothing, against a
	// peer that does not read.
	waitLinked(t, a, 1)
	big := initMsg(1, strings.Repeat("x", 512<<10))
	if err := a.Send(2, big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer has written", func() bool { return a.Sent() > 0 })
	for i := 1; i < 64; i++ { // 32 MiB: more than loopback socket buffers hold
		if err := a.Send(2, big); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close waited for a blocked writer")
	}
}

// lateTransport lets a node hold its transport before it is bound.
type lateTransport struct{ *netx.Transport }

func TestConsensusOverTCP(t *testing.T) {
	// Full consensus across 4 real processes over loopback TCP — the
	// end-to-end "production path" test: rt nodes + netx transports.
	const n = 4
	p := types.Params{N: n, T: 1, M: 2}

	// Every node exists before its transport listens, as in minsync-node:
	// links connect at boot, so a peer's first frames can arrive before
	// the last node is built, and they wait in its inbox until Start. The
	// transport is bound once the mesh is up; a node sends nothing
	// before Start.
	nodes := make(map[types.ProcID]*rt.Node, n)
	sends := make(map[types.ProcID]*lateTransport, n)
	recv := make(map[types.ProcID]netx.RecvFunc, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		sends[id] = &lateTransport{}
		node, err := rt.NewNode(rt.NodeConfig{ID: id, Params: p, Transport: sends[id]})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		recv[id] = node.Deliver
	}
	trs, _ := startMesh(t, n, recv)
	for id, s := range sends {
		s.Transport = trs[id]
	}

	var mu sync.Mutex
	decisions := make(map[types.ProcID]types.Value)
	done := make(chan struct{})
	engines := make(map[types.ProcID]*core.Engine, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		node := nodes[id]
		var engErr error
		node.Start(func(env proto.Env) proto.Handler {
			eng, err := core.New(core.Config{
				Env:      env,
				TimeUnit: types.Duration(30 * time.Millisecond),
				OnDecide: func(v types.Value) {
					mu.Lock()
					decisions[id] = v
					if len(decisions) == n {
						close(done)
					}
					mu.Unlock()
				},
			})
			if err != nil {
				engErr = err
				return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			}
			engines[id] = eng
			return eng
		})
		if engErr != nil {
			t.Fatal(engErr)
		}
		t.Cleanup(node.Stop)
	}

	proposals := map[types.ProcID]types.Value{1: "a", 2: "a", 3: "b", 4: "b"}
	for id, v := range proposals {
		id, v := id, v
		eng := engines[id]
		nodes[id].Post(func() {
			if err := eng.Propose(v); err != nil {
				t.Errorf("%v: %v", id, err)
			}
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-done:
	case <-ctx.Done():
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timeout; decisions so far: %v", decisions)
	}
	mu.Lock()
	defer mu.Unlock()
	var ref types.Value
	for id, v := range decisions {
		if ref == "" {
			ref = v
		}
		if v != ref {
			t.Fatalf("disagreement: %v decided %q vs %q", id, v, ref)
		}
	}
	if ref != "a" && ref != "b" {
		t.Fatalf("invalid decision %q", ref)
	}
}

// waitLinked waits for k of tr's links to have connected; the deadline
// only keeps a broken build from hanging.
func waitLinked(t *testing.T, tr *netx.Transport, k int) {
	t.Helper()
	select {
	case <-tr.Linked(k):
	case <-time.After(30 * time.Second):
		t.Fatalf("never %d links: %v", k, tr.Links())
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func linkUp(tr *netx.Transport, p types.ProcID) bool { return tr.Links()[p].State == netx.LinkUp }

// dialLog records the dial attempts every transport Listened after it is
// made sends to one address.
type dialLog struct {
	mu sync.Mutex
	at []time.Time
}

func watchDials(t *testing.T, addr string) *dialLog {
	d := &dialLog{}
	netx.WatchDials(t, func(to string, at time.Time) {
		if to == addr {
			d.mu.Lock()
			d.at = append(d.at, at)
			d.mu.Unlock()
		}
	})
	return d
}

func (d *dialLog) attempts() []time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Time(nil), d.at...)
}

// TestLinksConnectWithoutFrames: every link of a mesh dials its peer at
// boot, so each transport links to all its peers with exactly one
// connection each and not a frame sent, received or dropped.
func TestLinksConnectWithoutFrames(t *testing.T) {
	const n = 4
	trs, _ := startMesh(t, n, nil)
	for id, tr := range trs {
		waitLinked(t, tr, n-1)
		m := tr.Metrics()
		if c := m.Connects.Value(); c != n-1 {
			t.Errorf("transport %v: %d connects, want %d", id, c, n-1)
		}
		if tr.Sent() != 0 || tr.Received() != 0 || m.DroppedDown.Value() != 0 || m.DroppedStalled.Value() != 0 {
			t.Errorf("transport %v: sent %d, received %d, dropped %d down and %d stalled; want none",
				id, tr.Sent(), tr.Received(), m.DroppedDown.Value(), m.DroppedStalled.Value())
		}
		for p, st := range tr.Links() {
			if st.State != netx.LinkUp {
				t.Errorf("transport %v: all linked with its link to %v %s", id, p, st.State)
			}
		}
	}
}

// TestReadyWaitsForLateListener: a peer that starts listening after the
// transport keeps its link unconnected through failed probes; once it
// listens, the next probe connects, Linked(1) fires, and a frame sent
// then is delivered.
func TestReadyWaitsForLateListener(t *testing.T) {
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	dials := watchDials(t, addrs[2])
	a := listen(t, netx.Config{Self: 1, Addrs: addrs})
	waitFor(t, "a second probe of the absent peer", func() bool { return len(dials.attempts()) >= 2 })
	if isClosed(a.Linked(1)) || linkUp(a, 2) {
		t.Fatalf("linked (links %v) before the peer listens", a.Links())
	}

	var c collect
	listen(t, netx.Config{Self: 2, Addrs: addrs, Recv: c.recv(2)[2]})
	waitLinked(t, a, 1)
	if !linkUp(a, 2) {
		t.Fatal("linked with the link down")
	}
	msg := initMsg(1, "after ready")
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame arrives", func() bool { return len(c.at(2)) == 1 })
	if got := c.at(2)[0]; got != msg {
		t.Fatalf("received %+v", got)
	}
	if c := a.Metrics().Connects.Value(); c != 1 {
		t.Fatalf("%d connects, want the probe's one", c)
	}
}

// TestHelloEndsBackoff: a peer that starts listening after the
// transport's first probe failed is linked as soon as it dials in, not
// when the backoff ends. The backoff is made far longer than the test
// waits, so only the peer's hello can have cut it; the link dials the
// late peer once more than the failed probe, and not again.
func TestHelloEndsBackoff(t *testing.T) {
	const backoff = time.Minute
	netx.LengthenMinBackoff(t, backoff)
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	dials := watchDials(t, addrs[2])
	a := listen(t, netx.Config{Self: 1, Addrs: addrs})
	waitFor(t, "the failed probe of the absent peer", func() bool { return len(dials.attempts()) >= 1 })

	listen(t, netx.Config{Self: 2, Addrs: addrs})
	select {
	case <-a.Linked(1):
	case <-time.After(backoff / 2):
		t.Fatalf("not linked %v after the peer started: links %v", backoff/2, a.Links())
	}
	if n := len(dials.attempts()); n != 2 {
		t.Fatalf("%d dials of the late peer, want the failed probe and one more", n)
	}
}

// TestAbsentPeerNeverReady: a peer nothing listens for never counts
// towards Linked, and its probes are spaced by at least the doubling
// backoff a failed dial has always waited.
func TestAbsentPeerNeverReady(t *testing.T) {
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	dials := watchDials(t, addrs[2])
	wm := wireMetrics(2)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})
	const probes = 6
	waitFor(t, "six probes of the absent peer", func() bool { return len(dials.attempts()) >= probes })
	at := dials.attempts()
	wait := netx.MinBackoff
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < wait {
			t.Errorf("probe %d came %v after the one before, under the %v backoff", i+1, gap, wait)
		}
		wait = min(2*wait, netx.MaxBackoff)
	}
	if isClosed(a.Linked(1)) || linkUp(a, 2) || wm.Connects.Value() != 0 {
		t.Fatalf("linked %v, links %v, %d connects to a peer nothing listens for", isClosed(a.Linked(1)), a.Links(), wm.Connects.Value())
	}
	if d := wm.DroppedDown.Value(); d != 0 {
		t.Fatalf("probes dropped %d frames", d)
	}
}

// TestLinkedFiresAtK: Linked(0) is closed at once; Linked(k) closes when
// the k-th link first connects and not before, as peers start listening
// one at a time; a channel asked for after that is closed at once; and
// Linked(k) for k above the number of peers never closes.
func TestLinkedFiresAtK(t *testing.T) {
	const n = 4
	addrs := make(map[types.ProcID]string, n)
	for i := 1; i <= n; i++ {
		addrs[types.ProcID(i)] = netxtest.Addr(t)
	}
	dials := watchDials(t, addrs[2])
	wm := wireMetrics(2, 3, 4)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})
	linked := make([]<-chan struct{}, n+1)
	for k := range linked {
		linked[k] = a.Linked(k)
	}
	if !isClosed(linked[0]) {
		t.Fatal("Linked(0) is not closed at once")
	}
	waitFor(t, "a second probe of an absent peer", func() bool { return len(dials.attempts()) >= 2 })
	for k := 1; k <= n; k++ {
		if isClosed(linked[k]) {
			t.Fatalf("Linked(%d) closed before any peer listens", k)
		}
	}
	for k := 1; k < n; k++ {
		listen(t, netx.Config{Self: types.ProcID(k + 1), Addrs: addrs})
		select {
		case <-linked[k]:
		case <-time.After(30 * time.Second):
			t.Fatalf("Linked(%d) never closed: links %v", k, a.Links())
		}
		if c := wm.Connects.Value(); c != uint64(k) {
			t.Errorf("Linked(%d) closed after %d connects", k, c)
		}
		if isClosed(linked[k+1]) {
			t.Fatalf("Linked(%d) closed with %d peers listening", k+1, k)
		}
		if !isClosed(a.Linked(k)) {
			t.Fatalf("Linked(%d) asked for after it fired is not closed", k)
		}
	}
	if isClosed(linked[n]) || isClosed(a.Linked(n+5)) {
		t.Fatalf("Linked above the %d peers closed", n-1)
	}
}

// TestLinkDownWhenPeerCloses: a peer that closes its end of a link makes
// the link read down with no frame sent to find out; once the peer
// listens again, the next Send dials it afresh and is delivered rather
// than written into the dead socket.
func TestLinkDownWhenPeerCloses(t *testing.T) {
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t)}
	wm := wireMetrics(2)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})
	b, err := netx.Listen(netx.Config{Self: 2, Addrs: addrs, Recv: func(types.ProcID, proto.Message) {}})
	if err != nil {
		t.Fatal(err)
	}
	waitLinked(t, a, 1)
	b.Close()
	waitFor(t, "the link to the closed peer reads down", func() bool { return a.Links()[2].State == netx.LinkDown })

	var c collect
	listen(t, netx.Config{Self: 2, Addrs: addrs, Recv: c.recv(2)[2]})
	msg := initMsg(1, "after the restart")
	if err := a.Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame arrives", func() bool { return len(c.at(2)) == 1 })
	if got := c.at(2)[0]; got != msg {
		t.Fatalf("received %+v", got)
	}
	if d := wm.DroppedDown.Value() + wm.DroppedStalled.Value(); d != 0 || wm.Connects.Value() != 2 {
		t.Fatalf("%d frames dropped over %d connects; want none over 2", d, wm.Connects.Value())
	}
}

// TestLinksReportState: a link whose dial was refused reads backoff, and
// a link to a peer that does not read reports the bytes it holds
// unwritten, as the per-peer queue gauge does.
func TestLinksReportState(t *testing.T) {
	silent, _ := silentPeer(t)
	addrs := map[types.ProcID]string{1: netxtest.Addr(t), 2: netxtest.Addr(t), 3: silent}
	wm := wireMetrics(2, 3)
	a := listen(t, netx.Config{Self: 1, Addrs: addrs, Metrics: wm})
	msg := initMsg(1, "v")
	waitFor(t, "the refused link backs off", func() bool {
		_ = a.Send(2, msg)
		return a.Links()[2].State == netx.LinkBackoff
	})

	waitLinked(t, a, 1)
	big := initMsg(1, strings.Repeat("x", 512<<10))
	for i := 0; i < 64; i++ { // 32 MiB: more than loopback socket buffers hold
		if err := a.Send(3, big); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the stalled link reports its backlog", func() bool {
		st := a.Links()[3]
		return st.State == netx.LinkUp && st.QueueBytes > 0 && int64(st.QueueBytes) == wm.QueueBytes[3].Value()
	})
}

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
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

// reserveAddr returns a loopback address nothing listens on: a throwaway
// :0 listener's, already closed.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startMesh brings up n transports on loopback. Ports are reserved with
// throwaway :0 listeners first so every transport knows the full address
// map up front.
func startMesh(t *testing.T, n int, recv map[types.ProcID]netx.RecvFunc) (map[types.ProcID]*netx.Transport, map[types.ProcID]string) {
	t.Helper()
	addrs := make(map[types.ProcID]string, n)
	for i := 1; i <= n; i++ {
		addrs[types.ProcID(i)] = reserveAddr(t)
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

func wireMetrics(peers ...int) *obs.WireMetrics {
	return obs.NewWireMetrics(obs.NewRegistry(), "", int(proto.MsgSnapResponse)+1,
		func(k int) string { return proto.MsgKind(k).String() }, peers)
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
	// Raw dial with valid handshake then garbage frame.
	conn, err := net.Dial("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint32(hello[0:], 4) // frame length
	binary.LittleEndian.PutUint32(hello[4:], 1) // claim to be p1
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	garbage := []byte{3, 0, 0, 0, 0xFF, 0xFF, 0xFF}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
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

// TestStalledPeerDoesNotBlockSend: a peer that accepts and never reads
// fills its link; Send keeps returning, the healthy peer keeps receiving
// everything, and the stalled link drops its backlog.
func TestStalledPeerDoesNotBlockSend(t *testing.T) {
	netx.ShortenStallTimeout(t, 50*time.Millisecond)
	silent, _ := silentPeer(t)
	addrs := map[types.ProcID]string{1: reserveAddr(t), 2: reserveAddr(t), 3: silent}
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
	addrs := map[types.ProcID]string{1: reserveAddr(t), 2: reserveAddr(t)}
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

// TestCloseWithBlockedWriter: Close returns while a link's writer is stuck
// writing to a peer that does not read.
func TestCloseWithBlockedWriter(t *testing.T) {
	silent, accepted := silentPeer(t)
	addrs := map[types.ProcID]string{1: reserveAddr(t), 2: silent}
	a := listen(t, netx.Config{Self: 1, Addrs: addrs})
	big := initMsg(1, strings.Repeat("x", 512<<10))
	for i := 0; i < 64; i++ { // 32 MiB: more than loopback socket buffers hold
		if err := a.Send(2, big); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-accepted:
	case <-time.After(30 * time.Second):
		t.Fatal("the writer never connected")
	}
	waitFor(t, "the writer has written", func() bool { return a.Sent() > 0 })
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

func TestConsensusOverTCP(t *testing.T) {
	// Full consensus across 4 real processes over loopback TCP — the
	// end-to-end "production path" test: rt nodes + netx transports.
	const n = 4
	p := types.Params{N: n, T: 1, M: 2}

	nodes := make(map[types.ProcID]*rt.Node, n)
	recv := make(map[types.ProcID]netx.RecvFunc, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		recv[id] = func(from types.ProcID, m proto.Message) {
			if node := nodes[id]; node != nil {
				node.Deliver(from, m)
			}
		}
	}
	trs, _ := startMesh(t, n, recv)

	var mu sync.Mutex
	decisions := make(map[types.ProcID]types.Value)
	done := make(chan struct{})
	engines := make(map[types.ProcID]*core.Engine, n)
	for i := 1; i <= n; i++ {
		id := types.ProcID(i)
		node, err := rt.NewNode(rt.NodeConfig{
			ID: id, Params: p, Transport: transportAdapter{trs[id]},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
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

// transportAdapter adapts *netx.Transport to rt.Transport.
type transportAdapter struct{ tr *netx.Transport }

func (a transportAdapter) Send(to types.ProcID, m proto.Message) error {
	return a.tr.Send(to, m)
}

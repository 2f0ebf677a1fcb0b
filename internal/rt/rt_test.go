package rt_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

func TestClusterUnanimous(t *testing.T) {
	c, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 4, T: 1, M: 2},
		Engine: core.Config{TimeUnit: types.Duration(20 * time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := 1; i <= 4; i++ {
		if err := c.Propose(types.ProcID(i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	decisions, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v (decisions %v)", err, decisions)
	}
	for id, v := range decisions {
		if v != "v" {
			t.Fatalf("%v decided %q", id, v)
		}
	}
	if len(decisions) != 4 {
		t.Fatalf("decisions = %v", decisions)
	}
}

func TestClusterMixedWithSilentFault(t *testing.T) {
	c, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 4, T: 1, M: 2},
		Engine: core.Config{TimeUnit: types.Duration(20 * time.Millisecond)},
		Silent: []types.ProcID{4},
		Delay: func(from, to types.ProcID) time.Duration {
			return time.Duration((int(from)+int(to))%3) * time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	proposals := map[types.ProcID]types.Value{1: "a", 2: "b", 3: "a"}
	for id, v := range proposals {
		if err := c.Propose(id, v); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	decisions, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v (decisions %v)", err, decisions)
	}
	var ref types.Value
	for id, v := range decisions {
		if ref == "" {
			ref = v
		}
		if v != ref {
			t.Fatalf("disagreement: %v decided %q, others %q", id, v, ref)
		}
		if v != "a" && v != "b" {
			t.Fatalf("invalid decision %q", v)
		}
	}
	if len(decisions) != 3 {
		t.Fatalf("decisions = %v", decisions)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 3, T: 1, M: 1},
		Engine: core.Config{TimeUnit: types.Duration(time.Millisecond)},
	}); err == nil {
		t.Error("t ≥ n/3 must fail")
	}
	if _, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 4, T: 1, M: 2},
		Engine: core.Config{TimeUnit: types.Duration(time.Millisecond)},
		Silent: []types.ProcID{3, 4},
	}); err == nil {
		t.Error("silent > t must fail")
	}
}

func TestProposeErrors(t *testing.T) {
	c, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 4, T: 1, M: 2},
		Engine: core.Config{TimeUnit: types.Duration(20 * time.Millisecond)},
		Silent: []types.ProcID{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Propose(4, "v"); err == nil {
		t.Error("proposing at a silent process must fail")
	}
	if err := c.Propose(1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Propose(1, "w"); err == nil {
		t.Error("second propose must fail")
	}
}

// callLog records the transport calls a node makes.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (c *callLog) Send(to types.ProcID, m proto.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, fmt.Sprintf("send %v", to))
	return nil
}

func (c *callLog) get() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.calls...)
}

type multicastLog struct{ callLog }

func (c *multicastLog) Multicast(to []types.ProcID, m proto.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, fmt.Sprintf("multicast %v", to))
	return errors.New("a refused link") // swallowed, as Send's are
}

// A broadcast is the self-delivery plus one transport call for the peers;
// a transport without Multicast gets one Send per peer instead.
func TestBroadcastMakesOneTransportCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   interface {
			rt.Transport
			get() []string
		}
		want []string
	}{
		{"multicaster", &multicastLog{}, []string{"multicast [p1 p2 p4]"}},
		{"send only", &callLog{}, []string{"send p1", "send p2", "send p4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, err := rt.NewNode(rt.NodeConfig{ID: 3, Params: types.Params{N: 4, T: 1}, Transport: tc.tr})
			if err != nil {
				t.Fatal(err)
			}
			self := make(chan proto.Message, 1)
			var env proto.Env
			node.Start(func(e proto.Env) proto.Handler {
				env = e
				return proto.HandlerFunc(func(_ types.ProcID, m proto.Message) { self <- m })
			})
			defer node.Stop()
			m := proto.Message{Kind: proto.MsgDecide, Tag: proto.Tag{Mod: proto.ModDecide}, Val: "v"}
			node.Post(func() { env.Broadcast(m) })
			if got := <-self; got != m {
				t.Fatalf("self-delivery %+v", got)
			}
			if got := tc.tr.get(); !slices.Equal(got, tc.want) {
				t.Fatalf("transport calls %q, want %q", got, tc.want)
			}
		})
	}
}

// relayFrame is a test frame; the loop hands every copy to the handler.
func relayFrame(v string) proto.Message {
	return proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Val: types.Value(v)}
}

// TestTypedInboxOrder: posts, deliveries and self-sends share one loop.
// Inbox events run in the order they were queued, so each source's are
// FIFO, and what an event sends to its own process runs before the next
// inbox event (the always-timely self channel, paper §4). Every post and
// delivery counts as one posted event; self-sends do not.
func TestTypedInboxOrder(t *testing.T) {
	metrics := obs.NewNodeMetrics(obs.NewRegistry(), "")
	node, err := rt.NewNode(rt.NodeConfig{ID: 1, Params: types.Params{N: 4, T: 1}, Transport: nullTransport{}, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	var got []string // loop-owned
	var env proto.Env
	node.Start(func(e proto.Env) proto.Handler {
		env = e
		return proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
			got = append(got, fmt.Sprintf("%v:%s", from, m.Val))
		})
	})
	defer node.Stop()
	gate := make(chan struct{})
	node.Post(func() { <-gate }) // hold the loop so everything below queues
	var want []string
	for i := 0; i < 60; i++ {
		switch i % 3 {
		case 0:
			node.Deliver(2, relayFrame(fmt.Sprint("d", i)))
			want = append(want, fmt.Sprintf("p2:d%d", i))
		case 1:
			node.Deliver(3, relayFrame(fmt.Sprint("d", i)))
			want = append(want, fmt.Sprintf("p3:d%d", i))
		case 2:
			name := fmt.Sprint("post", i)
			node.Post(func() {
				got = append(got, name)
				env.Send(1, relayFrame(name+"a"))
				env.Broadcast(relayFrame(name + "b"))
			})
			want = append(want, name, "p1:"+name+"a", "p1:"+name+"b")
		}
	}
	done := make(chan []string, 1)
	node.Post(func() { done <- got })
	close(gate)
	if got := <-done; !slices.Equal(got, want) {
		t.Fatalf("handled\n%q\nwant\n%q", got, want)
	}
	if got := metrics.Posted.Value(); got != 62 {
		t.Fatalf("%d posted events, want 62 (60 posts and deliveries, the gate, the reader)", got)
	}
}

// Delivering a message into a started node allocates nothing: the
// message travels through the inbox as a value, not in a closure.
func TestDeliverAllocatesNothing(t *testing.T) {
	node, err := rt.NewNode(rt.NodeConfig{ID: 1, Params: types.Params{N: 4, T: 1}, Transport: nullTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	handled := make(chan struct{}, 1)
	node.Start(func(proto.Env) proto.Handler {
		return proto.HandlerFunc(func(types.ProcID, proto.Message) { handled <- struct{}{} })
	})
	defer node.Stop()
	m := relayFrame("frame")
	allocs := testing.AllocsPerRun(100, func() {
		node.Deliver(2, m)
		<-handled
	})
	if allocs != 0 {
		t.Fatalf("Deliver allocates %v times", allocs)
	}
}

func TestNodeStopIdempotent(t *testing.T) {
	c, err := rt.NewCluster(rt.ClusterConfig{
		Params: types.Params{N: 4, T: 1, M: 2},
		Engine: core.Config{TimeUnit: types.Duration(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop() // double stop must not panic or deadlock
}

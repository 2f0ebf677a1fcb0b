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

package rb_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

// delivery records one RB-delivery at one process.
type delivery struct {
	origin types.ProcID
	tag    proto.Tag
	val    types.Value
}

// rbWorld builds a world of n processes with f of them given custom
// behaviors; the rest run plain RB layers that record deliveries.
type rbWorld struct {
	w         *harness.World
	delivered map[types.ProcID][]delivery
	layers    map[types.ProcID]*rb.Layer
}

func newRBWorld(t *testing.T, p types.Params, topo *network.Topology, seed int64, byz map[types.ProcID]harness.Behavior) *rbWorld {
	t.Helper()
	w, err := harness.New(harness.Config{Params: p, Topology: topo, Seed: seed, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	rw := &rbWorld{
		w:         w,
		delivered: make(map[types.ProcID][]delivery),
		layers:    make(map[types.ProcID]*rb.Layer),
	}
	for _, id := range p.AllProcs() {
		id := id
		if b, ok := byz[id]; ok {
			if err := w.SetBehavior(id, firstMessage(b)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		err := w.SetBehavior(id, func(env proto.Env) proto.Handler {
			layer := rb.New(env, func(origin types.ProcID, tag proto.Tag, v types.Value) {
				rw.delivered[id] = append(rw.delivered[id], delivery{origin: origin, tag: tag, val: v})
			})
			rw.layers[id] = layer
			return proto.NewNode(env.Params().N, proto.HandlerFunc(func(from types.ProcID, m proto.Message) {
				layer.OnMessage(from, m)
			}), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rw
}

var testTag = proto.Tag{Mod: proto.ModConsCB0, Round: 0}

func TestTermination1AllCorrect(t *testing.T) {
	// A correct sender's RB-broadcast is delivered by every correct process.
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := types.Params{N: n, T: (n - 1) / 3, M: 1}
			rw := newRBWorld(t, p, network.FullyAsynchronous(n), 42, nil)
			rw.w.Sched.After(0, func() { rw.layers[1].Broadcast(testTag, "hello") })
			rw.w.Run(0, 0)
			for _, id := range p.AllProcs() {
				got := rw.delivered[id]
				if len(got) != 1 {
					t.Fatalf("%v delivered %d messages, want 1", id, len(got))
				}
				if got[0].val != "hello" || got[0].origin != 1 {
					t.Fatalf("%v delivered %+v", id, got[0])
				}
			}
		})
	}
}

func TestUnicityAgainstSpam(t *testing.T) {
	// A Byzantine sender spams INIT with different values on the SAME tag;
	// correct processes must deliver at most one value, and all the same.
	p := types.Params{N: 4, T: 1, M: 1}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler {
			env.SetTimer(0, func() {
				for i := 0; i < 5; i++ {
					env.Broadcast(proto.Message{
						Kind: proto.MsgRBInit, Tag: testTag, Origin: 4,
						Val: types.Value(fmt.Sprintf("spam%d", i)),
					})
				}
			})
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		},
	}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 7, byz)
	rw.w.Run(0, 0)
	var val types.Value
	for _, id := range []types.ProcID{1, 2, 3} {
		got := rw.delivered[id]
		if len(got) > 1 {
			t.Fatalf("%v delivered %d messages from one instance", id, len(got))
		}
		if len(got) == 1 {
			if val == "" {
				val = got[0].val
			} else if got[0].val != val {
				t.Fatalf("correct processes delivered different values: %q vs %q", val, got[0].val)
			}
		}
	}
}

// equivocator sends INIT("a") to the first half and INIT("b") to the rest.
func equivocator(id types.ProcID, tag proto.Tag) harness.Behavior {
	return func(env proto.Env) proto.Handler {
		env.SetTimer(0, func() {
			n := env.Params().N
			for i := 1; i <= n; i++ {
				v := types.Value("a")
				if i > n/2 {
					v = "b"
				}
				env.Send(types.ProcID(i), proto.Message{Kind: proto.MsgRBInit, Tag: tag, Origin: id, Val: v})
			}
		})
		return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
	}
}

func TestTermination2Agreement(t *testing.T) {
	// Equivocating Byzantine sender p_n: either nobody delivers, or everyone
	// delivers the same value (RB-Termination-2 + agreement on content).
	for _, n := range []int{4, 7, 10} {
		for seed := int64(0); seed < 20; seed++ {
			p := types.Params{N: n, T: (n - 1) / 3, M: 1}
			sender := types.ProcID(n)
			byz := map[types.ProcID]harness.Behavior{sender: equivocator(sender, testTag)}
			rw := newRBWorld(t, p, network.FullyAsynchronous(n), seed, byz)
			rw.w.Run(0, 0)
			var vals []types.Value
			count := 0
			for id := types.ProcID(1); id < sender; id++ {
				got := rw.delivered[id]
				if len(got) > 1 {
					t.Fatalf("n=%d seed %d: %v delivered twice", n, seed, id)
				}
				if len(got) == 1 {
					count++
					vals = append(vals, got[0].val)
				}
			}
			if count != 0 && count != n-1 {
				t.Fatalf("n=%d seed %d: only %d/%d correct processes delivered (termination-2 violated)", n, seed, count, n-1)
			}
			for _, v := range vals {
				if v != vals[0] {
					t.Fatalf("n=%d seed %d: divergent deliveries %v", n, seed, vals)
				}
			}
		}
	}
}

func TestValidityNoForgery(t *testing.T) {
	// A Byzantine process tries to forge an INIT with Origin = p1.
	// No correct process may deliver anything attributed to p1.
	p := types.Params{N: 4, T: 1, M: 1}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler {
			env.SetTimer(0, func() {
				env.Broadcast(proto.Message{Kind: proto.MsgRBInit, Tag: testTag, Origin: 1, Val: "forged"})
			})
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		},
	}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 3, byz)
	rw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 3; id++ {
		if len(rw.delivered[id]) != 0 {
			t.Fatalf("%v delivered forged message %+v", id, rw.delivered[id])
		}
	}
}

func TestCrashSenderNoDelivery(t *testing.T) {
	// A sender that sends INIT to only one process and crashes: with only
	// one echo path the value cannot reach the echo quorum, so nobody
	// delivers — but nobody blocks either (termination-2 vacuous).
	p := types.Params{N: 4, T: 1, M: 1}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler {
			env.SetTimer(0, func() {
				env.Send(1, proto.Message{Kind: proto.MsgRBInit, Tag: testTag, Origin: 4, Val: "partial"})
			})
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		},
	}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 5, byz)
	rw.w.Run(0, 0)
	for id := types.ProcID(1); id <= 3; id++ {
		if len(rw.delivered[id]) != 0 {
			t.Fatalf("%v delivered from a crashed partial sender", id)
		}
	}
}

func TestPartialInitWithEchoAmplification(t *testing.T) {
	// Byzantine sender sends INIT to exactly enough processes that the
	// echo quorum can still form: then ALL correct processes must deliver
	// (termination-2), even those that never saw the INIT.
	p := types.Params{N: 4, T: 1, M: 1}
	byz := map[types.ProcID]harness.Behavior{
		4: func(env proto.Env) proto.Handler {
			env.SetTimer(0, func() {
				// INIT to all three correct processes but not itself; the
				// sender then goes silent (sends no echoes/readies).
				for _, to := range []types.ProcID{1, 2, 3} {
					env.Send(to, proto.Message{Kind: proto.MsgRBInit, Tag: testTag, Origin: 4, Val: "v"})
				}
			})
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		},
	}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 11, byz)
	rw.w.Run(0, 0)
	// echoQuorum = (4+1)/2+1 = 3 — the three correct echoes suffice.
	for id := types.ProcID(1); id <= 3; id++ {
		got := rw.delivered[id]
		if len(got) != 1 || got[0].val != "v" {
			t.Fatalf("%v: deliveries %+v", id, got)
		}
	}
}

func TestManyConcurrentInstances(t *testing.T) {
	// All processes broadcast on many tags at once; every correct process
	// must deliver n×tags messages with correct attribution.
	p := types.Params{N: 4, T: 1, M: 1}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 9, nil)
	const rounds = 25
	rw.w.Sched.After(0, func() {
		for r := types.Round(1); r <= rounds; r++ {
			for id, l := range rw.layers {
				l.Broadcast(proto.Tag{Mod: proto.ModACEst, Round: r}, types.Value(fmt.Sprintf("%v@%d", id, r)))
			}
		}
	})
	rw.w.Run(0, 0)
	for id := range rw.layers {
		got := rw.delivered[id]
		if len(got) != 4*rounds {
			t.Fatalf("%v delivered %d, want %d", id, len(got), 4*rounds)
		}
		seen := make(map[string]bool)
		for _, d := range got {
			key := d.origin.String() + d.tag.String()
			if seen[key] {
				t.Fatalf("%v: duplicate delivery for %s", id, key)
			}
			seen[key] = true
			want := types.Value(fmt.Sprintf("%v@%d", d.origin, d.tag.Round))
			if d.val != want {
				t.Fatalf("%v: delivered %q from %v, want %q", id, d.val, d.origin, want)
			}
		}
	}
	if got := rw.layers[1].Instances(); got != 4*rounds {
		t.Fatalf("Instances() = %d, want %d", got, 4*rounds)
	}
}

func TestDeliveryUnderEventualSynchronyOnly(t *testing.T) {
	// Huge async delays before GST; RB must still complete after GST.
	p := types.Params{N: 4, T: 1, M: 1}
	topo := network.EventuallySynchronous(4, types.Time(10*time.Second), types.Duration(5*time.Millisecond))
	rw := newRBWorld(t, p, topo, 13, nil)
	rw.w.Sched.After(0, func() { rw.layers[2].Broadcast(testTag, "late") })
	rw.w.Run(0, 0)
	for _, id := range p.AllProcs() {
		if len(rw.delivered[id]) != 1 {
			t.Fatalf("%v: no delivery under eventual synchrony", id)
		}
	}
}

// quietEnv is one process whose sends vanish and whose timers never fire,
// so an allocation count measures the layer alone.
type quietEnv struct{ p types.Params }

func (e quietEnv) ID() types.ProcID                                { return 1 }
func (e quietEnv) Params() types.Params                            { return e.p }
func (e quietEnv) Now() types.Time                                 { return 0 }
func (e quietEnv) Send(types.ProcID, proto.Message)                {}
func (e quietEnv) Broadcast(proto.Message)                         {}
func (e quietEnv) SetTimer(types.Duration, func()) (cancel func()) { return func() {} }
func (e quietEnv) Trace() *trace.Log                               { return nil }

// Counting ECHOs and READYs on an existing instance allocates nothing,
// from the first vote through every threshold to the delivery: the first
// value's tally lives in the instance.
func TestVoteCountingAllocatesNothing(t *testing.T) {
	const runs = 20
	p := types.Params{N: 7, T: 2, M: 1}
	delivered := 0
	l := rb.New(quietEnv{p}, func(types.ProcID, proto.Tag, types.Value) { delivered++ })
	v := types.Value(strings.Repeat("v", 1024))
	// AllocsPerRun makes runs+1 calls; each counts on its own instance.
	for r := types.Round(0); r <= runs; r++ {
		l.OnMessage(2, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModACEst, Round: r}, Origin: 2, Val: v})
	}
	r, procs := types.Round(0), p.AllProcs()
	allocs := testing.AllocsPerRun(runs, func() {
		tag := proto.Tag{Mod: proto.ModACEst, Round: r}
		for _, from := range procs {
			l.OnMessage(from, proto.Message{Kind: proto.MsgRBEcho, Tag: tag, Origin: 2, Val: v})
			l.OnMessage(from, proto.Message{Kind: proto.MsgRBReady, Tag: tag, Origin: 2, Val: v})
		}
		r++
	})
	if allocs != 0 {
		t.Fatalf("counting one instance's votes allocates %v times", allocs)
	}
	if delivered != runs+1 {
		t.Fatalf("%d deliveries, want %d", delivered, runs+1)
	}
}

// A Byzantine sender's votes for a second value are counted apart from
// the first value's.
func TestVotesCountedPerValue(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 1}
	var got []types.Value
	l := rb.New(quietEnv{p}, func(_ types.ProcID, _ proto.Tag, v types.Value) { got = append(got, v) })
	vote := func(from types.ProcID, v types.Value) {
		l.OnMessage(from, proto.Message{Kind: proto.MsgRBReady, Tag: testTag, Origin: 4, Val: v})
	}
	vote(4, "x")
	vote(1, "v")
	vote(2, "v")
	if len(got) != 0 {
		t.Fatalf("delivered %q on two READYs for v and one for x", got)
	}
	vote(3, "v")
	if len(got) != 1 || got[0] != "v" {
		t.Fatalf("delivered %q, want [v]", got)
	}
}

func TestNonRBMessagesNotConsumed(t *testing.T) {
	p := types.Params{N: 4, T: 1, M: 1}
	rw := newRBWorld(t, p, network.FullyAsynchronous(4), 1, nil)
	rw.w.Run(0, 0) // build layers
	if rw.layers[1].OnMessage(2, proto.Message{Kind: proto.MsgEAProp2}) {
		t.Fatal("EA message must not be consumed by RB")
	}
}

// firstMessage hosts b behind the first-message rule, like every process
// of the world: the harness hands deliveries straight to the handler.
func firstMessage(b harness.Behavior) harness.Behavior {
	return func(env proto.Env) proto.Handler { return proto.NewNode(env.Params().N, b(env), nil) }
}

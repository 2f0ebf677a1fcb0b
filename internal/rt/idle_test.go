package rt_test

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

// hang is how long a test waits for an event that a correct loop always
// produces before it reports the loop as stuck. No assertion depends on
// how much of it elapses.
const hang = 30 * time.Second

type nullTransport struct{}

func (nullTransport) Send(types.ProcID, proto.Message) error { return nil }

// idleProbe hosts a message-recording handler on a node and registers one
// idle hook. Everything but the channels is loop-owned: read it from a
// posted closure or after Stop.
type idleProbe struct {
	node *rt.Node
	env  proto.Env

	hookRuns int
	handled  int           // closures posted through post()
	ran      chan struct{} // one token per hook run
	got      chan proto.Message
	onIdle   func() // extra work of the hook, nil for none
}

func startIdleProbe(t *testing.T) *idleProbe {
	t.Helper()
	node, err := rt.NewNode(rt.NodeConfig{
		ID: 1, Params: types.Params{N: 4, T: 1}, Transport: nullTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Buffers sized so the loop never blocks on a test that is not reading.
	p := &idleProbe{node: node, ran: make(chan struct{}, 1024), got: make(chan proto.Message, 16)}
	node.Start(func(env proto.Env) proto.Handler {
		host, ok := env.(proto.IdleNotifier)
		if !ok {
			t.Error("rt's env does not implement proto.IdleNotifier")
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		p.env = env
		host.OnIdle(func() {
			p.hookRuns++
			if p.onIdle != nil {
				p.onIdle()
			}
			p.ran <- struct{}{}
		})
		return proto.HandlerFunc(func(_ types.ProcID, m proto.Message) { p.got <- m })
	})
	return p
}

func (p *idleProbe) post(t *testing.T, fn func()) {
	t.Helper()
	if !p.node.Post(func() { p.handled++; fn() }) {
		t.Fatal("node stopped")
	}
}

func (p *idleProbe) awaitHook(t *testing.T) {
	t.Helper()
	select {
	case <-p.ran:
	case <-time.After(hang):
		t.Fatal("idle hook did not run")
	}
}

// The hook does not run while posts are queued: with the loop held inside
// one closure and K more queued behind it, the first hook run sees all of
// them handled.
func TestIdleHookWaitsForQueuedPosts(t *testing.T) {
	const k = 50
	p := startIdleProbe(t)
	gate := make(chan struct{})
	var seen []int // handled count at each hook run
	p.onIdle = func() { seen = append(seen, p.handled) }
	p.post(t, func() { <-gate })
	for i := 0; i < k; i++ {
		p.post(t, func() {})
	}
	close(gate)
	p.awaitHook(t)
	p.node.Stop()
	if len(seen) != 1 || seen[0] != k+1 {
		t.Fatalf("hook runs saw %v handled posts, want one run after all %d", seen, k+1)
	}
}

// The hook runs once per drain, not in a spin: d separate drains make
// exactly d runs, and the loop blocks in between.
func TestIdleHookRunsOncePerDrain(t *testing.T) {
	const drains = 20
	p := startIdleProbe(t)
	for i := 0; i < drains; i++ {
		p.post(t, func() {})
		p.awaitHook(t)
	}
	p.node.Stop()
	if p.hookRuns != drains {
		t.Fatalf("hook ran %d times over %d drains", p.hookRuns, drains)
	}
}

// What the hook sends to its own process is handled before the loop
// blocks — nothing else is posted after the hook runs, so a loop that
// went to sleep on the inbox would never deliver it — and handling it is
// input like any other: the hook runs again afterwards.
func TestIdleHookSelfSendsAreHandled(t *testing.T) {
	p := startIdleProbe(t)
	frame := proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 1, Val: "held"}
	sent := false
	p.onIdle = func() {
		if !sent {
			sent = true
			p.env.Send(1, frame)
		}
	}
	p.post(t, func() {})
	select {
	case m := <-p.got:
		if m != frame {
			t.Fatalf("handled %+v, want %+v", m, frame)
		}
	case <-time.After(hang):
		t.Fatal("the hook's self-send was never handled")
	}
	p.awaitHook(t)
	p.awaitHook(t)
	p.node.Stop()
	if p.hookRuns != 2 {
		t.Fatalf("hook ran %d times, want 2 (after the post, after its own self-send)", p.hookRuns)
	}
}

// Stop does not wait for, or run, the hook: with Stop already called and
// posts still queued, the loop handles the posts and exits.
func TestIdleHookNotRequiredAfterStop(t *testing.T) {
	p := startIdleProbe(t)
	gate := make(chan struct{})
	queued := 0
	p.post(t, func() { <-gate })
	queued++
	stopped := make(chan struct{})
	go func() {
		p.node.Stop()
		close(stopped)
	}()
	// Post reports false only once stop is closed; until then each
	// success is one more closure the stopping loop has to drain. The
	// inbox bounds the loop: a Post that finds it full waits for stop.
	for p.node.Post(func() { p.handled++ }) {
		queued++
	}
	close(gate)
	select {
	case <-stopped:
	case <-time.After(hang):
		t.Fatal("Stop did not return")
	}
	if p.handled != queued {
		t.Fatalf("handled %d of %d queued posts", p.handled, queued)
	}
	if p.hookRuns != 0 {
		t.Fatalf("hook ran %d times after Stop", p.hookRuns)
	}
}

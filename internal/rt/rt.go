// Package rt hosts the (simulation-agnostic) protocol code on real time:
// each process becomes a goroutine event loop, timers are real timers, and
// messages move over a pluggable transport — in-memory channels for
// tests (MemNetwork), TCP (internal/netx) for multi-process deployments.
// Its one production handler is a KV replica (internal/replica), which
// cmd/minsync-node runs.
//
// The protocol engines (internal/core and below) are single-threaded by
// design; the Node event loop preserves that: every message, timer and
// submitted command is executed on the loop goroutine.
package rt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// Transport moves messages between processes.
type Transport interface {
	// Send transmits m from the owning node to peer `to`. It is called on
	// the event loop, so implementations must not block.
	Send(to types.ProcID, m proto.Message) error
}

// Multicaster is a Transport that sends one message to several peers in
// one call, encoding it once (netx.Transport). It must not block either.
type Multicaster interface {
	Transport
	Multicast(to []types.ProcID, m proto.Message) error
}

// AsMulticaster returns tr if it multicasts, else tr with a Multicast
// that Sends to each peer in turn and returns the first error.
func AsMulticaster(tr Transport) Multicaster {
	if mc, ok := tr.(Multicaster); ok {
		return mc
	}
	return sendEach{tr}
}

type sendEach struct{ Transport }

func (s sendEach) Multicast(to []types.ProcID, m proto.Message) (err error) {
	for _, p := range to {
		if e := s.Send(p, m); err == nil {
			err = e
		}
	}
	return err
}

// Node hosts a protocol handler on a real-time event loop.
type Node struct {
	id        types.ProcID
	params    types.Params
	transport Multicaster
	peers     []types.ProcID // every process but this one, for Broadcast
	start     time.Time

	inbox chan event
	// selfQ is the unbounded self-delivery queue. The protocol stack runs
	// on the loop goroutine and Sends to itself while handling a message
	// (every Broadcast includes the sender); routing those through the
	// bounded inbox would let the loop block on its own full queue — a
	// self-deadlock, since the loop is also the only drainer. Loop-owned:
	// only the loop goroutine appends (env.Send) and drains (run loop),
	// so no lock. The queue is bounded in practice by the reentrancy
	// depth of one handler's sends, not by inbox depth; selfHead is the
	// next entry to run, and the array is reused once the queue drains.
	selfQ    []event
	selfHead int
	stop     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once

	// idleHooks run when the loop is out of input (proto.IdleNotifier).
	// Loop-owned like selfQ: registered from build or a posted closure.
	idleHooks []func()

	metrics *obs.NodeMetrics
	handler proto.Handler // installed by Start
}

// event is one input of the loop: a message m from a process, or fn (a
// timer, a probe, anything posted) when fn is non-nil. Messages travel as
// values, so delivering one allocates nothing.
type event struct {
	fn   func()
	from types.ProcID
	m    proto.Message
}

func (n *Node) handle(ev event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	n.handler.OnMessage(ev.from, ev.m)
}

// NodeConfig configures a Node.
type NodeConfig struct {
	// ID and Params identify the process and the system parameters.
	ID     types.ProcID
	Params types.Params
	// Transport carries outbound messages (required).
	Transport Transport
	// InboxDepth bounds the event queue (default 4096). A full inbox
	// applies backpressure to transport readers, never drops. The loop's
	// own self-sends bypass the bound (see Node.selfQ): backpressure is
	// for other goroutines, never the drainer itself.
	InboxDepth int
	// Metrics is the event loop's tally (obs.NewNodeMetrics); nil counts
	// into private cells.
	Metrics *obs.NodeMetrics
}

// NewNode creates a node; Start must be called before use.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("rt: nil transport")
	}
	if err := cfg.Params.Validate(true); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	depth := cfg.InboxDepth
	if depth <= 0 {
		depth = 4096
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewNodeMetrics(nil, "")
	}
	return &Node{
		id:        cfg.ID,
		params:    cfg.Params,
		transport: AsMulticaster(cfg.Transport),
		peers:     slices.DeleteFunc(cfg.Params.AllProcs(), func(p types.ProcID) bool { return p == cfg.ID }),
		inbox:     make(chan event, depth),
		stop:      make(chan struct{}),
		metrics:   cfg.Metrics,
	}, nil
}

// Start installs the handler built by build (which runs on the loop
// goroutine, so it can safely touch protocol state) and starts the loop.
// Frames delivered before Start wait in the inbox and reach the handler
// first. The loop applies no first-message rule: a handler that needs it
// and does not apply it itself comes wrapped in a proto.Node.
func (n *Node) Start(build func(env proto.Env) proto.Handler) {
	n.start = time.Now()
	ready := make(chan struct{})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.handler = build(&env{node: n})
		close(ready)
		n.loop()
	}()
	<-ready
}

// loop runs the node until Stop. Every step handles one queued event;
// when nothing is queued — selfQ empty and a non-blocking poll of the
// inbox finds nothing — the idle hooks run once and the loop blocks.
func (n *Node) loop() {
	// fed: input was handled since the idle hooks last ran. The hooks run
	// once per drain, not in a spin: a hook that sends to itself feeds the
	// loop again (its self-sends are handled before the loop blocks, and
	// may leave more for the hooks to do), one that does nothing does not.
	fed := false
	for {
		// Self-deliveries first: they model the always-timely self
		// channel (paper §4) and must never wait behind a full inbox.
		if n.runSelf() {
			fed = true
			continue
		}
		if !fed {
			select {
			case ev := <-n.inbox:
				n.handle(ev)
				fed = true
			case <-n.stop:
				n.drain()
				return
			}
			continue
		}
		select {
		case ev := <-n.inbox:
			n.handle(ev)
		case <-n.stop:
			n.drain()
			return
		default:
			fed = false
			for _, hook := range n.idleHooks {
				hook()
			}
		}
	}
}

// runSelf handles the oldest self-delivery, if any. The consumed slot is
// cleared so it holds no message, and a drained queue restarts at the
// front of its array.
func (n *Node) runSelf() bool {
	if n.selfHead == len(n.selfQ) {
		return false
	}
	ev := n.selfQ[n.selfHead]
	n.selfQ[n.selfHead] = event{}
	if n.selfHead++; n.selfHead == len(n.selfQ) {
		n.selfQ, n.selfHead = n.selfQ[:0], 0
	}
	n.handle(ev)
	return true
}

// drain handles whatever is already queued when the node stops. The idle
// hooks are not run: nothing they would send is needed after Stop.
func (n *Node) drain() {
	for {
		if n.runSelf() {
			continue
		}
		select {
		case ev := <-n.inbox:
			n.handle(ev)
		default:
			return
		}
	}
}

// Post schedules fn on the loop goroutine. It blocks if the inbox is full
// and reports false once the node is stopping.
func (n *Node) Post(fn func()) bool { return n.post(event{fn: fn}) }

// Deliver feeds an inbound transport message to the handler on the loop
// goroutine. Safe to call from any goroutine; it shares Post's
// inbox, backpressure and metrics, and allocates nothing.
func (n *Node) Deliver(from types.ProcID, m proto.Message) { n.post(event{from: from, m: m}) }

func (n *Node) post(ev event) bool {
	select {
	case <-n.stop:
		return false
	default:
	}
	select {
	case n.inbox <- ev:
		n.metrics.Posted.Inc()
		n.metrics.InboxDepth.Set(int64(len(n.inbox)))
		return true
	case <-n.stop:
		return false
	}
}

// Params returns the node's resilience parameters.
func (n *Node) Params() types.Params { return n.params }

// Stop terminates the loop and waits for it.
func (n *Node) Stop() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// env implements proto.Env on real time.
type env struct {
	node *Node
}

var (
	_ proto.Env          = (*env)(nil)
	_ proto.IdleNotifier = (*env)(nil)
)

func (e *env) ID() types.ProcID     { return e.node.id }
func (e *env) Params() types.Params { return e.node.params }

func (e *env) Now() types.Time {
	return types.Time(time.Since(e.node.start))
}

func (e *env) Send(to types.ProcID, m proto.Message) {
	if to == e.node.id {
		// Self-channel: always timely (paper §4). Sends originate on the
		// loop goroutine (the stack is single-threaded), so append to the
		// loop-owned unbounded self queue — going through the bounded
		// inbox would deadlock the loop against itself when the inbox is
		// full (the loop is the drainer).
		e.node.selfQ = append(e.node.selfQ, event{from: to, m: m})
		return
	}
	// Errors are deliberately swallowed: the model's channels are
	// reliable-eventual, and the upper layers are quorum-based — a dead
	// peer's messages simply never count.
	_ = e.node.transport.Send(to, m)
}

// Broadcast is the self-delivery plus one transport call for the peers.
func (e *env) Broadcast(m proto.Message) {
	e.Send(e.node.id, m)
	_ = e.node.transport.Multicast(e.node.peers, m)
}

func (e *env) SetTimer(d types.Duration, fn func()) (cancel func()) {
	var canceled bool // loop-goroutine state
	timer := time.AfterFunc(d, func() {
		e.node.Post(func() {
			if !canceled {
				fn()
			}
		})
	})
	return func() {
		timer.Stop()
		canceled = true
	}
}

// Trace discards: a live node's history is its xtrace flight recorder,
// and trace.Recording lets the layers skip building events at all.
func (e *env) Trace() trace.Sink { return trace.Discard{} }

// OnIdle implements proto.IdleNotifier: fn runs on the loop goroutine each
// time the loop has handled input and finds nothing more queued.
func (e *env) OnIdle(fn func()) {
	e.node.idleHooks = append(e.node.idleHooks, fn)
}

// --- In-memory transport ----------------------------------------------------

// MemNetwork connects Nodes in one process through real goroutine timers:
// a lightweight way to run the stack in real time without sockets.
type MemNetwork struct {
	mu    sync.Mutex
	nodes map[types.ProcID]*Node
	// Delay computes the per-message delay (nil = 0). It runs on the
	// sender's goroutine; return values must be ≥ 0.
	Delay func(from, to types.ProcID) time.Duration
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{nodes: make(map[types.ProcID]*Node)}
}

// Attach registers a node and returns its transport endpoint.
func (mn *MemNetwork) Attach(id types.ProcID) Transport {
	return &memEndpoint{net: mn, self: id}
}

// Register binds the node that Attach(id)'s endpoint delivers from.
func (mn *MemNetwork) Register(id types.ProcID, n *Node) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	mn.nodes[id] = n
}

type memEndpoint struct {
	net  *MemNetwork
	self types.ProcID
}

var _ Transport = (*memEndpoint)(nil)

func (ep *memEndpoint) Send(to types.ProcID, m proto.Message) error {
	ep.net.mu.Lock()
	target := ep.net.nodes[to]
	delay := time.Duration(0)
	if ep.net.Delay != nil {
		delay = ep.net.Delay(ep.self, to)
	}
	ep.net.mu.Unlock()
	if target == nil {
		return fmt.Errorf("rt: no node %v", to)
	}
	from := ep.self
	if delay <= 0 {
		target.Deliver(from, m)
		return nil
	}
	time.AfterFunc(delay, func() { target.Deliver(from, m) })
	return nil
}

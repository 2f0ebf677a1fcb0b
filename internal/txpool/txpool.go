// Package txpool is the admission-controlled command pool that fronts the
// log engine on a serving replica. The client edge (the HTTP/JSON API,
// internal/httpapi) pushes commands through one Pool, which decides —
// before anything reaches the ordering layer — whether the command is
// fresh work, a duplicate of something already in flight, or load the
// replica must shed.
//
// The pool answers three production concerns the bare engine does not:
//
//   - Dedup by (client, seq) before proposing. A client that retries a
//     request while the original is still being ordered does not inject a
//     second proposal; the retry joins the pending entry and both callers
//     are answered by the same committed response.
//   - Bounded memory under overload. The pool holds at most Capacity
//     pending entries; past that, Admit sheds with ErrFull and the edge
//     translates the error into backpressure (HTTP 429 + Retry-After).
//   - Committed-response forwarding. Resolve is driven by the state
//     machine's apply path on EVERY replica, so whichever replica a
//     client retries against can answer from its own pool or session
//     cache — retried requests never depend on the original replica
//     staying alive.
//
// The pool is deliberately engine-agnostic: it never proposes, forwards
// or applies anything itself. Admit tells the caller whether it is the
// one that should propose; Resolve is called by the host when a command's
// response commits. That keeps the package testable without a cluster
// and reusable by any edge.
//
// Concurrency: all methods are safe from any goroutine (one mutex; no
// lock is held while delivering to waiter channels — sends are
// non-blocking on buffered channels).
package txpool

import (
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// ErrFull is returned by Admit when the pool is at capacity: the caller
// should shed the request and tell the client to retry later.
var ErrFull = errors.New("txpool: pool at capacity")

// Key identifies one client command for dedup: the session identity the
// kv layer also keys exactly-once semantics on.
type Key struct {
	// Client is the session id (nonzero for sessioned commands); Seq the
	// client's sequence number within it.
	Client, Seq uint64
}

// Config parameterizes a Pool.
type Config struct {
	// Capacity bounds the pending entries (default 1024). Admission past
	// the bound sheds with ErrFull.
	Capacity int
	// TTL bounds how long an unresolved entry may occupy the pool.
	// Entries are swept lazily (on Admit); an expired entry's remaining
	// waiters get no reply — their own timeouts handle that. Default
	// 2 minutes. The TTL exists so commands whose commit path died (e.g.
	// submitted while the cluster had no quorum) cannot pin pool capacity
	// forever.
	TTL time.Duration
	// Metrics is the pool's tally (obs.NewPoolMetrics), which Stats reads;
	// nil counts into private cells.
	Metrics *obs.PoolMetrics
	// Tracer, if non-nil, opens each freshly-admitted command's causal
	// trace (internal/xtrace admit edge). Passive.
	Tracer *xtrace.Tracer
}

// entry is one pending command: the waiters to answer when it commits and
// the deadline after which the TTL sweep may drop it.
type entry struct {
	waiters  []chan types.Value
	deadline time.Time
}

// Pool is the admission-controlled pending-command pool. Use New.
type Pool struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	pending map[Key]*entry
	metrics *obs.PoolMetrics
	tracer  *xtrace.Tracer
}

// Stats is a point-in-time copy of the pool's lifetime counters, read
// from its metrics cells: the pool counts with or without a registry, so
// hosts can surface admission pressure on /statusz and /v1/status alike.
type Stats struct {
	// Admitted counts fresh entries created; Deduped arrivals that joined
	// a pending entry; Shed arrivals rejected at capacity; Resolved
	// entries answered by a committed response; Expired entries dropped
	// by the TTL sweep.
	Admitted, Deduped, Shed, Resolved, Expired uint64
	// Pending is the live depth at the time of the snapshot.
	Pending int
}

// New builds a pool.
func New(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Minute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewPoolMetrics(nil, "")
	}
	return &Pool{
		cap:     cfg.Capacity,
		ttl:     cfg.TTL,
		pending: make(map[Key]*entry),
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
	}
}

// Admit asks the pool to accept one client command. The returned channel
// (buffered, capacity 1) receives the committed response when the host
// calls Resolve for k.
//
// proposed reports whether this call created the entry: exactly one
// admission per pending (client, seq) gets proposed=true, and that caller
// — and only that caller — must hand the command to the ordering layer.
// Later arrivals join the entry (proposed=false) and just wait.
//
// When the pool is at capacity Admit returns ErrFull and the command must
// be shed. Capacity is checked after a lazy sweep of expired entries, so
// a burst that died with the quorum cannot wedge admission forever.
// cmd is the command's encoded bytes; the pool uses it only to open the
// command's causal trace on first admission (empty disables that, e.g.
// in tests).
func (p *Pool) Admit(k Key, cmd types.Value) (ch <-chan types.Value, proposed bool, err error) {
	c := make(chan types.Value, 1)
	p.mu.Lock()
	if e, ok := p.pending[k]; ok {
		e.waiters = append(e.waiters, c)
		p.metrics.Deduped.Inc()
		p.mu.Unlock()
		return c, false, nil
	}
	if len(p.pending) >= p.cap {
		p.sweepLocked(time.Now())
	}
	if len(p.pending) >= p.cap {
		p.metrics.Shed.Inc()
		p.mu.Unlock()
		return nil, false, ErrFull
	}
	p.pending[k] = &entry{waiters: []chan types.Value{c}, deadline: time.Now().Add(p.ttl)}
	p.metrics.Admitted.Inc()
	p.metrics.Pending.Set(int64(len(p.pending)))
	p.mu.Unlock()
	if cmd != "" {
		p.tracer.OnAdmit(cmd)
	}
	return c, true, nil
}

// Resolve answers a committed response to every waiter of k and retires
// the entry. It reports whether an entry existed — the host calls Resolve
// for every committed client command, most of which (other replicas'
// clients, replayed history) have no local waiters, and those are
// no-ops.
func (p *Pool) Resolve(k Key, resp types.Value) bool {
	p.mu.Lock()
	e, ok := p.pending[k]
	if !ok {
		p.mu.Unlock()
		return false
	}
	delete(p.pending, k)
	p.metrics.Resolved.Inc()
	p.metrics.Pending.Set(int64(len(p.pending)))
	p.mu.Unlock()
	for _, c := range e.waiters {
		select {
		case c <- resp:
		default:
		}
	}
	return true
}

// Forget detaches one waiter channel from k's entry (the caller timed out
// and will not read the response). The entry itself stays pending — the
// command is still in the ordering pipeline and still occupies capacity
// until Resolve or the TTL sweep retires it; that occupancy is exactly
// the backpressure signal the pool exists to produce.
func (p *Pool) Forget(k Key, ch <-chan types.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.pending[k]
	if !ok {
		return
	}
	for i, c := range e.waiters {
		if c == ch {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			break
		}
	}
}

// sweepLocked drops every entry past its deadline. Caller holds p.mu.
func (p *Pool) sweepLocked(now time.Time) {
	for k, e := range p.pending {
		if now.After(e.deadline) {
			delete(p.pending, k)
			p.metrics.Expired.Inc()
		}
	}
	p.metrics.Pending.Set(int64(len(p.pending)))
}

// Depth returns the live number of pending entries.
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Capacity returns the configured admission bound.
func (p *Pool) Capacity() int { return p.cap }

// Stats snapshots the lifetime counters and live depth.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.metrics
	return Stats{
		Admitted: m.Admitted.Value(),
		Deduped:  m.Deduped.Value(),
		Shed:     m.Shed.Value(),
		Resolved: m.Resolved.Value(),
		Expired:  m.Expired.Value(),
		Pending:  len(p.pending),
	}
}

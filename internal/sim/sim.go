// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, an event heap ordered by (time, sequence number), and a
// seeded random source. It is the substrate on which the asynchronous
// message-passing model of the paper is executed reproducibly — the same
// seed and configuration always yield the same schedule, which is what
// makes adversarial schedules and regression tests possible.
//
// Local processing takes zero virtual time (§2.1 of the paper): handlers
// run instantaneously at their scheduled instant; only message transfer and
// timers advance the clock.
//
// The kernel is built for large-n throughput: the heap orders pointer-free
// 24-byte keys in a 4-ary layout (sift operations incur no GC write
// barriers), event bodies — run-func, fire-timer, or deliver-message — live
// in stable arena slots recycled through a free list (no per-event heap
// node, no per-send closure), and timers cancel through the slot's
// generation counter (no per-timer allocation). The steady-state
// schedule/fire/deliver path performs no heap allocation. Only the total
// (time, seq) order of execution is the determinism contract; the heap
// shape and storage strategy are free to change.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/types"
)

// Event variants. A deliver event carries a network payload to the deliver
// hook; timer and func events carry a callback (the split is descriptive:
// timers are created through After, funcs through At); an owned timer
// (AfterFor) carries its Owner in the payload slot. The zero kind marks a
// free arena slot.
const (
	evFunc uint8 = iota + 1
	evTimer
	evOwned
	evDeliver
)

// Owner is the party an owned timer is armed for (AfterFor). At the
// timer's instant the event runs like any other — it is executed and
// counted — but calls its callback only if its owner is still Live.
type Owner interface {
	Live() bool
}

// heapKey is one heap entry: the ordering key plus the arena index of the
// event body. It deliberately contains no pointers, so sift operations
// move 24-byte pointer-free values and skip the write barrier.
//
// The (at, seq) pair is a strict total order: seq is unique per scheduler,
// so simultaneous events run in scheduling order (FIFO) no matter how the
// heap arranges them.
type heapKey struct {
	at  types.Time
	seq uint64
	idx int32
}

// event is one event body in a stable arena slot. gen survives slot reuse
// and increments on every release, so a stale Canceler (cancel-after-fire,
// double cancel, cancel after slot reuse) can never touch a later event.
type event struct {
	fn       func()
	payload  any
	from     types.ProcID
	to       types.ProcID
	gen      uint32
	kind     uint8 // 0 = free slot
	canceled bool
}

// DeliverFunc consumes a deliver-message event at its delivery instant.
type DeliverFunc func(from, to types.ProcID, payload any)

// Canceler cancels a scheduled event (typically a timer). The zero value
// is a no-op, as is canceling an already-fired or already-canceled event.
type Canceler struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Cancel marks the event so it will not fire. Cancellation is lazy — the
// entry stays in the heap until popped or compacted away — but the slot
// generation guarantees exactly-once semantics.
func (c Canceler) Cancel() {
	s := c.s
	if s == nil {
		return
	}
	b := &s.arena[c.idx]
	if b.gen != c.gen || b.kind == 0 || b.canceled {
		return
	}
	b.canceled = true
	s.canceled++
	s.maybeCompact()
}

// Scheduler is the simulation kernel. Not safe for concurrent use: the
// whole simulation is single-threaded by design (determinism).
type Scheduler struct {
	now  types.Time
	seq  uint64
	heap []heapKey

	arena    []event // event bodies, addressed by heapKey.idx
	freeEv   []int32 // free list of arena slots
	canceled int     // canceled entries still sitting in the heap

	deliver DeliverFunc
	rng     *rand.Rand
	stopped bool

	// Executed counts events actually run (for run-length diagnostics).
	Executed uint64
	// Compactions counts heap compaction passes (diagnostics).
	Compactions uint64
}

// NewScheduler returns a scheduler with the clock at 0 and the given seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() types.Time { return s.now }

// Rand exposes the deterministic random source. All randomness in a
// simulation must come from here.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// SetDeliver registers the hook that consumes deliver-message events
// (the network installs itself here once per world).
func (s *Scheduler) SetDeliver(fn DeliverFunc) { s.deliver = fn }

// --- arena + 4-ary heap over (at, seq) ---------------------------------------

// before reports strict (at, seq) order. seq uniqueness makes it total.
// It compares the pair as one 128-bit unsigned number (at is never
// negative: every scheduling call clamps it to now ≥ 0), by the borrow
// out of a two-word subtraction, which compiles without a branch.
func before(a, b heapKey) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// allocEvent stores the body in a recycled (or fresh) arena slot and
// returns its index; the slot's generation is preserved across reuse.
func (s *Scheduler) allocEvent(e event) int32 {
	if n := len(s.freeEv); n > 0 {
		idx := s.freeEv[n-1]
		s.freeEv = s.freeEv[:n-1]
		e.gen = s.arena[idx].gen
		s.arena[idx] = e
		return idx
	}
	s.arena = append(s.arena, e)
	return int32(len(s.arena) - 1)
}

// takeEvent copies the body out, clears the slot (releasing fn/payload
// references), bumps its generation and recycles it.
func (s *Scheduler) takeEvent(idx int32) event {
	b := &s.arena[idx]
	e := *b
	*b = event{gen: e.gen + 1}
	s.freeEv = append(s.freeEv, idx)
	return e
}

func (s *Scheduler) push(at types.Time, e event) int32 {
	idx := s.allocEvent(e)
	s.seq++
	k := heapKey{at: at, seq: s.seq, idx: idx}
	s.heap = append(s.heap, k)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !before(k, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = k
	return idx
}

// popTop removes heap[0]; the caller must have read it first. It walks
// the hole at the root down to a leaf along the smallest children, then
// lets the former last entry rise from there (Floyd's bottom-up pop): the
// last entry belongs near the bottom, so that costs about one comparison
// instead of one per level. Where a node has all four children, the
// smallest is found by a two-round tournament of branch-free selects.
// At sim-batch's queue depth (about 212 events) BenchmarkSchedulerPending
// runs about a sixth faster this way than with a plain sift-down.
func (s *Scheduler) popTop() {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n == 0 {
		return
	}
	h := s.heap
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+3 < n {
			// All four children exist: a two-round tournament, each
			// round a branch-free select.
			a := c + b2i(before(h[c+1], h[c]))
			b := c + 2 + b2i(before(h[c+3], h[c+2]))
			m = a
			if before(h[b], h[a]) {
				m = b
			}
		} else {
			for j := c + 1; j < n; j++ {
				if before(h[j], h[m]) {
					m = j
				}
			}
		}
		h[i] = h[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) / 4
		if !before(last, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = last
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// siftDown places k at index i, pushing smaller children up.
func (s *Scheduler) siftDown(i int, k heapKey) {
	n := len(s.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !before(s.heap[m], k) {
			break
		}
		s.heap[i] = s.heap[m]
		i = m
	}
	s.heap[i] = k
}

// compactMin is the minimum number of canceled heap entries before a
// compaction pass is considered (below it, lazy deletion is cheaper).
const compactMin = 64

// maybeCompact rebuilds the heap when canceled entries outnumber live
// ones. Without it, long runs that repeatedly arm and cancel timers (the
// EA round timeout pattern) retain every canceled entry until its original
// fire instant — potentially for the whole run.
func (s *Scheduler) maybeCompact() {
	if s.canceled < compactMin || 2*s.canceled <= len(s.heap) {
		return
	}
	keep := s.heap[:0]
	for _, k := range s.heap {
		if s.arena[k.idx].canceled {
			s.takeEvent(k.idx)
			continue
		}
		keep = append(keep, k)
	}
	s.heap = keep
	s.canceled = 0
	for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
		s.siftDown(i, s.heap[i])
	}
	s.Compactions++
}

// --- scheduling ---------------------------------------------------------------

func (s *Scheduler) schedule(at types.Time, e event) Canceler {
	if at < s.now {
		at = s.now
	}
	idx := s.push(at, e)
	return Canceler{s: s, idx: idx, gen: s.arena[idx].gen}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past is clamped to "now" (runs after currently queued simultaneous
// events). It returns a Canceler.
func (s *Scheduler) At(at types.Time, fn func()) Canceler {
	return s.schedule(at, event{fn: fn, kind: evFunc})
}

// After schedules fn to run d from now (the fire-timer event variant).
func (s *Scheduler) After(d types.Duration, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), event{fn: fn, kind: evTimer})
}

// AfterFor is After for a callback that must not run once o is no
// longer live (a simulated process powered off after arming it). It
// spares the caller a wrapping closure per timer.
func (s *Scheduler) AfterFor(d types.Duration, o Owner, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now.Add(d), event{fn: fn, payload: o, kind: evOwned})
}

// ScheduleDeliver queues a deliver-message event: at time at, the
// registered deliver hook receives (from, to, payload). This is the
// allocation-free path the network routes every message through.
func (s *Scheduler) ScheduleDeliver(at types.Time, from, to types.ProcID, payload any) {
	if at < s.now {
		at = s.now
	}
	s.push(at, event{payload: payload, from: from, to: to, kind: evDeliver})
}

// Stop makes Run return before executing the next event.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of queued (possibly canceled) events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// PendingCanceled returns how many queued events are lazily canceled
// (bounded by the compaction policy; exposed for regression tests).
func (s *Scheduler) PendingCanceled() int { return s.canceled }

// Run executes events in (time, seq) order until one of:
//   - the queue drains,
//   - Stop is called from inside an event,
//   - the virtual clock would pass deadline (0 = no deadline),
//   - maxEvents events have run (0 = no limit).
//
// It returns the reason it stopped.
type StopReason int

// Stop reasons for Run.
const (
	Drained StopReason = iota + 1 // no events left
	Stopped                       // Stop() called
	DeadlineReached
	EventLimit
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case Drained:
		return "drained"
	case Stopped:
		return "stopped"
	case DeadlineReached:
		return "deadline"
	case EventLimit:
		return "event-limit"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Run drives the simulation. See StopReason for the termination contract.
func (s *Scheduler) Run(deadline types.Time, maxEvents uint64) StopReason {
	s.stopped = false
	for len(s.heap) > 0 {
		if s.stopped {
			return Stopped
		}
		top := s.heap[0]
		if s.arena[top.idx].canceled {
			s.popTop()
			s.takeEvent(top.idx)
			s.canceled--
			continue
		}
		if deadline > 0 && top.at > deadline {
			s.now = deadline
			return DeadlineReached
		}
		if maxEvents > 0 && s.Executed >= maxEvents {
			return EventLimit
		}
		s.popTop()
		e := s.takeEvent(top.idx)
		s.now = top.at
		s.Executed++
		if e.kind != evDeliver {
			if e.kind != evOwned || e.payload.(Owner).Live() {
				e.fn()
			}
			continue
		}
		s.deliver(e.from, e.to, e.payload)
		// Batch simultaneous same-destination deliveries: as long as the
		// globally next event is a deliver to the same process at the same
		// instant, hand it over without re-entering the outer loop. Order
		// is untouched — only events already next in (at, seq) order are
		// taken — so traces are byte-identical with and without batching.
		for len(s.heap) > 0 && !s.stopped {
			t := s.heap[0]
			if t.at != top.at {
				break
			}
			if nb := &s.arena[t.idx]; nb.kind != evDeliver || nb.to != e.to || nb.canceled {
				break
			}
			if maxEvents > 0 && s.Executed >= maxEvents {
				break
			}
			s.popTop()
			d := s.takeEvent(t.idx)
			s.Executed++
			s.deliver(d.from, d.to, d.payload)
		}
	}
	return Drained
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// TestSlotReuseAfterCancel checks the generation counter across free-list
// reuse: a canceler kept from a canceled-and-reaped event must not be able
// to cancel the event that later recycles its arena slot.
func TestSlotReuseAfterCancel(t *testing.T) {
	s := NewScheduler(1)
	stale := s.After(10, func() { t.Fatal("canceled event fired") })
	stale.Cancel()
	if got := s.PendingCanceled(); got != 1 {
		t.Fatalf("PendingCanceled = %d, want 1", got)
	}
	// Drain: the canceled event is reaped, its slot goes to the free list.
	if r := s.Run(0, 0); r != Drained {
		t.Fatalf("Run = %v", r)
	}
	// The next event recycles the slot; the stale canceler must be inert.
	fired := false
	s.After(5, func() { fired = true })
	stale.Cancel()
	s.Run(0, 0)
	if !fired {
		t.Fatal("stale canceler from a previous slot generation canceled a new event")
	}
}

// TestCancelAfterFire checks that canceling an event that has already run
// is a no-op even when its slot has been recycled by a live event.
func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler(1)
	var c Canceler
	c = s.After(1, func() {})
	s.Run(0, 0)
	fired := false
	s.After(1, func() { fired = true }) // reuses the freed slot
	c.Cancel()                          // stale: must not touch the new event
	c.Cancel()                          // and double-cancel stays inert
	s.Run(0, 0)
	if !fired {
		t.Fatal("cancel-after-fire reached a recycled slot")
	}
	if s.PendingCanceled() != 0 {
		t.Fatalf("PendingCanceled = %d after inert cancels", s.PendingCanceled())
	}
}

// TestCancelFromInsideOwnEvent: an event canceling itself while running is
// a no-op (the slot was released before the callback fired).
func TestCancelFromInsideOwnEvent(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	var c Canceler
	c = s.After(1, func() {
		ran++
		c.Cancel()
	})
	s.Run(0, 0)
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	if s.PendingCanceled() != 0 {
		t.Fatalf("self-cancel leaked a canceled mark: %d", s.PendingCanceled())
	}
}

// TestCompactionBoundsHeap is the canceled-timer retention regression
// test: the repeated arm-then-cancel pattern of EA round timeouts (a
// far-future timer canceled as soon as the round advances) must not
// accumulate in the heap for the rest of the run.
func TestCompactionBoundsHeap(t *testing.T) {
	s := NewScheduler(1)
	// A handful of live far-future events so the heap is never empty.
	const live = 50
	for i := 0; i < live; i++ {
		s.At(types.Time(1_000_000+i), func() {})
	}
	const churns = 100_000
	maxPending := 0
	for i := 0; i < churns; i++ {
		c := s.After(types.Duration(500_000+i), func() { t.Fatal("canceled timer fired") })
		c.Cancel()
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// Without compaction the heap would hold live + churns entries. The
	// policy bounds the canceled fraction at half the heap (plus the
	// compactMin hysteresis).
	bound := 2*(live+compactMin) + 1
	if maxPending > bound {
		t.Fatalf("heap grew to %d entries under cancel churn (bound %d)", maxPending, bound)
	}
	if s.Compactions == 0 {
		t.Fatal("no compaction pass ran under heavy cancel churn")
	}
	// The free lists must actually recycle: the arena cannot have grown
	// anywhere near one slot per churned timer.
	if len(s.arena) > bound {
		t.Fatalf("arena grew to %d slots; free list is not recycling", len(s.arena))
	}
	if r := s.Run(0, 0); r != Drained {
		t.Fatalf("Run = %v", r)
	}
	if s.Executed != live {
		t.Fatalf("Executed = %d, want %d (only live events run)", s.Executed, live)
	}
}

// TestInterleavingFuzz drives a randomized schedule/cancel/fire
// interleaving against a reference model and checks that exactly the
// never-canceled events fire, in nondecreasing time order, regardless of
// how slots and heap entries are recycled. The generation counters make
// this safe even though cancelers are used late (after fire, after reuse).
func TestInterleavingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		s := NewScheduler(int64(trial))
		type tracked struct {
			c        Canceler
			canceled bool
			fired    bool
		}
		var evs []*tracked
		var order []types.Time
		var schedule func(depth int)
		schedule = func(depth int) {
			tr := &tracked{}
			evs = append(evs, tr)
			d := types.Duration(rng.Intn(1000))
			tr.c = s.After(d, func() {
				tr.fired = true
				order = append(order, s.Now())
				if depth < 3 && rng.Intn(2) == 0 {
					schedule(depth + 1)
				}
				// Occasionally cancel a random earlier event mid-run.
				if rng.Intn(3) == 0 {
					v := evs[rng.Intn(len(evs))]
					v.c.Cancel()
					if !v.fired {
						v.canceled = true
					}
				}
			})
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		// Pre-run cancels, including double cancels.
		for _, v := range evs {
			if rng.Intn(4) == 0 {
				v.c.Cancel()
				v.canceled = true
				if rng.Intn(2) == 0 {
					v.c.Cancel()
				}
			}
		}
		if r := s.Run(0, 0); r != Drained {
			t.Fatalf("trial %d: Run = %v", trial, r)
		}
		for i, v := range evs {
			if v.canceled && v.fired {
				t.Fatalf("trial %d: event %d both canceled and fired", trial, i)
			}
			if !v.canceled && !v.fired {
				t.Fatalf("trial %d: event %d neither canceled nor fired", trial, i)
			}
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("trial %d: fire times regressed: %v", trial, order)
			}
		}
		if s.PendingCanceled() != 0 || s.Pending() != 0 {
			t.Fatalf("trial %d: drained scheduler still has pending=%d canceled=%d",
				trial, s.Pending(), s.PendingCanceled())
		}
	}
}

// TestDeliverBatchOrder checks that same-instant same-destination delivery
// batching does not perturb (time, seq) order across interleaved
// destinations.
func TestDeliverBatchOrder(t *testing.T) {
	s := NewScheduler(1)
	type rec struct {
		from, to types.ProcID
		at       types.Time
	}
	var got []rec
	s.SetDeliver(func(from, to types.ProcID, payload any) {
		got = append(got, rec{from, to, s.Now()})
	})
	// Interleave destinations at the same instant plus a func event.
	s.ScheduleDeliver(5, 1, 2, nil)
	s.ScheduleDeliver(5, 3, 2, nil)
	s.ScheduleDeliver(5, 1, 4, nil)
	s.ScheduleDeliver(5, 2, 2, nil)
	ranFn := false
	s.At(5, func() { ranFn = true })
	s.ScheduleDeliver(5, 4, 2, nil)
	s.Run(0, 0)
	want := []rec{{1, 2, 5}, {3, 2, 5}, {1, 4, 5}, {2, 2, 5}, {4, 2, 5}}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v (batching must preserve seq order)", i, got[i], want[i])
		}
	}
	if !ranFn {
		t.Fatal("func event between deliver batches did not run")
	}
	if s.Executed != 6 {
		t.Fatalf("Executed = %d, want 6 (batched deliveries still count)", s.Executed)
	}
}

// TestDeliverRespectsEventLimit: the batch fast path must honor maxEvents.
func TestDeliverRespectsEventLimit(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.SetDeliver(func(types.ProcID, types.ProcID, any) { n++ })
	for i := 0; i < 5; i++ {
		s.ScheduleDeliver(1, 1, 2, nil)
	}
	if r := s.Run(0, 3); r != EventLimit {
		t.Fatalf("Run = %v", r)
	}
	if n != 3 || s.Executed != 3 {
		t.Fatalf("delivered %d / executed %d, want 3", n, s.Executed)
	}
	if r := s.Run(0, 0); r != Drained {
		t.Fatalf("resume = %v", r)
	}
	if n != 5 {
		t.Fatalf("after resume delivered %d, want 5", n)
	}
}

// TestDeliverStop: a receiver calling Stop must halt the batch drain.
func TestDeliverStop(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.SetDeliver(func(types.ProcID, types.ProcID, any) {
		n++
		if n == 2 {
			s.Stop()
		}
	})
	for i := 0; i < 4; i++ {
		s.ScheduleDeliver(1, 1, 2, nil)
	}
	if r := s.Run(0, 0); r != Stopped {
		t.Fatalf("Run = %v", r)
	}
	if n != 2 {
		t.Fatalf("delivered %d before stop, want 2", n)
	}
}

// BenchmarkSchedulerPending: the event loop at a steady queue depth, the
// shape of a simulated world (sim-batch keeps about 212 events pending).
// Each event schedules one successor 1–20 ms ahead, so every pop sifts
// through a heap of that depth.
func BenchmarkSchedulerPending(b *testing.B) {
	for _, depth := range []int{16, 212, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := NewScheduler(1)
			rng := rand.New(rand.NewSource(1))
			fired := 0
			var step func()
			step = func() {
				fired++
				if fired < b.N {
					s.After(types.Duration(1_000_000+rng.Intn(19_000_000)), step)
				}
			}
			for i := 0; i < depth; i++ {
				s.After(types.Duration(rng.Intn(20_000_000)), step)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(0, uint64(b.N))
		})
	}
}

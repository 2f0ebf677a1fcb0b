package runner

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/types"
)

// TestSubmitTimerPerInstant: a KV world arms one submit timer per correct
// replica per distinct submit instant — one in all when the whole workload
// is submitted at once, one per command when it is staggered — besides
// each replica's Start timer. Either way the timers submit to each
// replica exactly the sequence one timer per command would: the workload
// in order, command k at k·SubmitEvery.
func TestSubmitTimerPerInstant(t *testing.T) {
	const ncmds = 30
	for _, tc := range []struct {
		name   string
		every  types.Duration
		timers int // per replica
	}{
		{"one instant", 0, 1},
		{"staggered", types.Duration(time.Millisecond), ncmds},
	} {
		spec := kvSpec(4, ncmds, 1)
		spec.SubmitEvery = tc.every
		w, res, _, err := buildKV(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := w.Sched.Pending(), len(res.Correct)*(tc.timers+1); got != want {
			t.Errorf("%s: %d events pending after construction, want %d (%d submit timers and a Start timer per replica)",
				tc.name, got, want, tc.timers)
		}

		cmds := make([]types.Value, ncmds)
		for k, c := range spec.Commands {
			cmds[k] = c.Encode()
		}
		cmds = append(cmds, cmds[3]) // a retry keeps its place in the sequence
		type timer struct {
			at types.Duration
			fn func()
		}
		var timers []timer
		var now types.Duration
		var got []string
		armSubmits(func(d types.Duration, fn func()) func() {
			timers = append(timers, timer{d, fn})
			return func() {}
		}, cmds, tc.every, func(c types.Value) error {
			got = append(got, fmt.Sprintf("%x@%v", c, now))
			return nil
		})
		// The scheduler runs simultaneous timers in the order they were armed.
		slices.SortStableFunc(timers, func(a, b timer) int { return cmp.Compare(a.at, b.at) })
		for _, tm := range timers {
			now = tm.at
			tm.fn()
		}
		var want []string
		for k, c := range cmds {
			want = append(want, fmt.Sprintf("%x@%v", c, types.Duration(k)*tc.every))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: submitted %q, want %q", tc.name, got, want)
		}
		armed := 1
		if tc.every > 0 {
			armed = len(cmds)
		}
		if len(timers) != armed {
			t.Errorf("%s: %d timers armed for %d commands, want %d", tc.name, len(timers), len(cmds), armed)
		}
	}
}

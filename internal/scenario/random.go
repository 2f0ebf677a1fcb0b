package scenario

import (
	"fmt"
	"math/rand"
	"time"
)

// Random samples the fault × network × workload cross-product with a
// seeded generator: the same seed always yields the same Spec, so random
// scenarios are as replayable as curated ones. The sample space stays
// model-legal by construction — at most t faults, and termination is
// only expected when the schedule actually promises a bisource.
func Random(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Name: fmt.Sprintf("random-%d", seed),
		Desc: "seeded sample of the fault × network × workload cross-product",
	}

	// Resilience shape.
	if rng.Intn(2) == 0 {
		s.N, s.T = 4, 1
	} else {
		s.N, s.T = 7, 2
	}
	s.M = 2

	// Workload.
	switch rng.Intn(8) {
	case 0, 1, 2:
		s.Work = Work{
			Kind:      WorkKV,
			Commands:  16 + rng.Intn(25), // 16..40
			BatchSize: []int{4, 8}[rng.Intn(2)],
			Pipeline:  []int{1, 2, 4}[rng.Intn(3)],
			Clients:   1 + rng.Intn(4),
			HotKey:    rng.Intn(2) == 0,
			Retries:   []int{0, 5}[rng.Intn(2)],
		}
		if rng.Intn(2) == 0 {
			s.Work.SnapshotEvery = 6 + rng.Intn(7) // 6..12
			s.Work.Compact = rng.Intn(2) == 0
			s.Work.CompactKeep = 2
		}
		s.M = 1
	default:
		s.Work = Work{Kind: WorkConsensus, BotMode: rng.Intn(3) == 0}
	}

	// Network schedule.
	switch rng.Intn(4) {
	case 0:
		s.Net.Kind = NetFull
	case 1:
		s.Net.Kind = NetEventual
		s.Net.GST = time.Duration(50+rng.Intn(151)) * time.Millisecond
	case 2:
		s.Net.Kind = NetBisource
		s.Net.GST = time.Duration(50+rng.Intn(151)) * time.Millisecond
	default:
		s.Net.Kind = NetAsync
	}
	s.Net.Jitter = Jitter(rng.Intn(3))
	s.Net.FIFO = rng.Intn(3) == 0
	if s.Net.Kind != NetFull && rng.Intn(3) == 0 {
		s.Net.PartitionCut = 1 + rng.Intn(s.N-1)
		heal := 40 + rng.Intn(100)
		s.Net.HealAt = time.Duration(heal) * time.Millisecond
		if gst := s.Net.GST; gst > 0 && s.Net.HealAt > gst {
			s.Net.HealAt = gst // a partition cannot outlast the promised synchrony
		}
	}

	// Fault assignment: 0..t faults drawn from the full preset library.
	// The vector-forging attack targets the log relay path, so it only
	// enters the pool for kv workloads (Validate rejects it for
	// single-shot consensus).
	kinds := []FaultKind{
		FaultSilent, FaultRelayOnly, FaultCrashAt, FaultEquivocate,
		FaultMuteCoordinator, FaultPoison, FaultRandom, FaultSpam,
		FaultFakeDecide,
	}
	if s.Work.Kind != WorkConsensus {
		kinds = append(kinds, FaultHashEquivocate)
	}
	for i, nf := 0, rng.Intn(s.T+1); i < nf; i++ {
		f := Fault{Kind: kinds[rng.Intn(len(kinds))]}
		if f.Kind == FaultCrashAt {
			f.After = time.Duration(10+rng.Intn(90)) * time.Millisecond
		}
		s.Faults = append(s.Faults, f)
	}

	// Liveness expectation and budgets follow the schedule.
	s.ExpectTermination = s.Net.Kind != NetAsync
	return s
}

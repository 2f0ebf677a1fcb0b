// Package scenario is the declarative execution-matrix engine: it composes
// Byzantine behavior assignments (internal/adversary), network schedules
// (internal/network timing classes, bisource placement, healing
// partitions, per-link delay classes, splitter scheduling) and workloads
// (single-shot consensus in both validity modes, replicated-log runs)
// into named, seed-deterministic Scenario specs that run on the harness
// and are verified by the internal/check property families plus the LOG-*
// total-order properties.
//
// The paper claims consensus under *minimal* synchrony — one
// ◇⟨t+1⟩bisource, everything else arbitrarily asynchronous, up to t
// Byzantine processes (§2.1, §6). Hand-wiring each adversary × schedule
// combination per test exercises only a handful of points of that space;
// this package enumerates it systematically: a curated registry of named
// scenarios (see registry.go), a Random generator sampling the
// cross-product (random.go), and a concurrent matrix runner whose results
// carry a trace digest so CI can assert byte-for-byte reproducibility.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/types"
	"repro/internal/wire"
)

// FaultKind enumerates the Byzantine behavior presets of the attack
// library (see internal/adversary for semantics).
type FaultKind int

// Byzantine behavior presets.
const (
	// FaultSilent crashes from the start.
	FaultSilent FaultKind = iota + 1
	// FaultRelayOnly relays RB traffic correctly but plays no other role.
	FaultRelayOnly
	// FaultCrashAt runs correctly then omits all sends from After on.
	FaultCrashAt
	// FaultEquivocate sends conflicting values to different processes.
	FaultEquivocate
	// FaultMuteCoordinator withholds its EA_COORD championing messages.
	FaultMuteCoordinator
	// FaultPoison champions and pushes an unproposed value everywhere.
	FaultPoison
	// FaultRandom randomly drops and flips outgoing messages.
	FaultRandom
	// FaultSpam floods conflicting and duplicate protocol messages.
	FaultSpam
	// FaultFakeDecide broadcasts a forged DECIDE.
	FaultFakeDecide
	// FaultHashEquivocate attacks the coalesced relay path: it sends
	// per-receiver forged MsgRBVector frames carrying equivocating value
	// hashes, duplicate entries, stale-instance entries and junk frames
	// (adversary.HashEquivocation), while running a correct rb layer
	// underneath so it can still answer protocol traffic.
	FaultHashEquivocate
)

var faultNames = map[FaultKind]string{
	FaultSilent: "silent", FaultRelayOnly: "relay-only", FaultCrashAt: "crash",
	FaultEquivocate: "equivocate", FaultMuteCoordinator: "mute-coord",
	FaultPoison: "poison", FaultRandom: "random", FaultSpam: "spam",
	FaultFakeDecide: "fake-decide", FaultHashEquivocate: "hash-equivocate",
}

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault configures one Byzantine process. Faults are assigned to the
// highest process IDs: with n processes and f faults, processes
// n−f+1 .. n are Byzantine.
type Fault struct {
	Kind FaultKind
	// Value is the value the attacker works with (its proposal for
	// engine-backed attackers, the forged/poison value otherwise).
	// Empty = derived from the workload's value pool.
	Value types.Value
	// Alt is the second value for FaultEquivocate, the flip set companion
	// for FaultRandom, and the poison for FaultPoison (empty = derived).
	Alt types.Value
	// After is the crash instant for FaultCrashAt (default 40 ms).
	After time.Duration
}

// NetKind enumerates the base synchrony shapes.
type NetKind int

// Base synchrony shapes.
const (
	// NetFull makes every channel timely with bound δ from time 0.
	NetFull NetKind = iota + 1
	// NetEventual makes every channel ◇timely from GST on.
	NetEventual
	// NetAsync leaves every channel asynchronous (no liveness promise).
	NetAsync
	// NetBisource plants exactly one ◇⟨t+1⟩bisource; the rest stays
	// asynchronous — the paper's minimal synchrony assumption.
	NetBisource
)

var netNames = map[NetKind]string{
	NetFull: "full", NetEventual: "eventual", NetAsync: "async", NetBisource: "bisource",
}

// String implements fmt.Stringer.
func (k NetKind) String() string {
	if s, ok := netNames[k]; ok {
		return s
	}
	return fmt.Sprintf("NetKind(%d)", int(k))
}

// Jitter selects the asynchronous-channel delay policy.
type Jitter int

// Jitter levels.
const (
	// JitterNone uses the stock uniform 1–20 ms policy.
	JitterNone Jitter = iota
	// JitterClasses assigns each link a fast/mid/slow delay class
	// (network.LinkClassDelay with the default bands).
	JitterClasses
	// JitterBursty adds heavy 80 ms congestion spikes (p = 0.2) on top of
	// the per-link classes, producing aggressive cross-channel reordering.
	JitterBursty
)

// Net describes the full network schedule of a scenario: base synchrony
// shape, bisource placement, an optional healing partition, per-link
// delay classes, and the splitter scheduling adversary.
type Net struct {
	Kind NetKind
	// GST is the stabilization instant for NetEventual / NetBisource
	// (default 150 ms; 0 keeps the default — use NetFull for GST 0).
	GST time.Duration
	// Delta is the timely bound δ (default 5 ms).
	Delta time.Duration
	// Bisource places the planted bisource for NetBisource. Zero value =
	// process 1 with the first t other correct processes as In and the
	// next t as Out (wrapping over correct IDs).
	Bisource network.BisourceSpec
	// PartitionCut > 0 splits processes {1..Cut} from {Cut+1..n} until
	// HealAt: cross-boundary messages are held back (clamped by whatever
	// timeliness the topology promises, so the model is never violated).
	PartitionCut int
	// HealAt is the partition heal instant (default GST when a partition
	// is requested).
	HealAt time.Duration
	// PartitionDrop makes the partition sever instead of delay:
	// cross-boundary messages sent before HealAt are LOST
	// (adversary.DroppingPartition), modeling a crashed/disconnected
	// replica whose transport frames are gone for good. This deliberately
	// breaks the paper's reliable-channel model during the cut — a
	// minority-side replica can then only reconverge through snapshot
	// state transfer, which is what the kv-lag-transfer scenarios pin.
	PartitionDrop bool
	// ChunkDropEvery > 0 destroys every ChunkDropEvery-th snapshot chunk
	// frame (adversary.ChunkLoss) until ChunkDropUntil: the loss mode the
	// chunked transfer protocol's range re-request exists for. Requires a
	// Transfer workload (chunk frames exist nowhere else) and a stride of
	// at least 2 — dropping every chunk is a severed link, which
	// PartitionDrop already models.
	ChunkDropEvery int
	// ChunkDropUntil ends the chunk-loss episode (0 = never: the sync
	// must complete under persistent periodic loss).
	ChunkDropUntil time.Duration
	// Jitter selects the async delay policy.
	Jitter Jitter
	// FIFO enforces per-channel ordering (false = reordering allowed).
	FIFO bool
	// Splitter enables the ConsensusSplitter overlay: estimate-stream
	// splitting plus coordinator suppression, the strongest model-legal
	// scheduling adversary in the library.
	Splitter bool
}

// WorkKind enumerates workload families.
type WorkKind int

// Workload families.
const (
	// WorkConsensus is one single-shot consensus execution.
	WorkConsensus WorkKind = iota + 1
	// WorkLog is a replicated-log run: a command stream totally ordered
	// by pipelined consensus instances (⊥-validity variant).
	WorkLog
	// WorkKV is a replicated-KV-service run: the full state-machine
	// stack — log, applier, key-value store with client sessions — with
	// optional snapshots, log compaction, durable crash-restart and peer
	// state transfer.
	WorkKV
)

// String implements fmt.Stringer.
func (k WorkKind) String() string {
	switch k {
	case WorkConsensus:
		return "consensus"
	case WorkLog:
		return "log"
	case WorkKV:
		return "kv"
	default:
		return fmt.Sprintf("WorkKind(%d)", int(k))
	}
}

// Work describes the workload of a scenario.
type Work struct {
	Kind WorkKind
	// Values is the proposal pool, assigned round-robin over the correct
	// processes (default {"a", "b"}). For WorkLog it only seeds fault
	// values.
	Values []types.Value
	// BotMode enables the §7 ⊥-default validity variant (single-shot
	// only; log instances always run it).
	BotMode bool
	// K is the §5.4 tuning parameter.
	K int
	// Commands is the WorkLog/WorkKV workload size (default 16 / 24).
	Commands int
	// BatchSize / Pipeline are the WorkLog/WorkKV engine knobs
	// (defaults 8 / 2).
	BatchSize, Pipeline int
	// SubmitEvery staggers the WorkLog/WorkKV command submissions.
	SubmitEvery time.Duration

	// --- WorkKV workload shape --------------------------------------

	// Clients is the session count (default 3); Keys the key-space size
	// (default 8).
	Clients, Keys int
	// HotKey skews the workload: ~70% of operations hit key 0.
	HotKey bool
	// Retries > 0 interleaves client retries: every Retries-th command is
	// followed by a byte-identical duplicate, and every Retries-th put by
	// a re-encoded duplicate with the same (client, seq). The session
	// layer must absorb all of them.
	Retries int
	// OutOfOrder appends one regressed-sequence command per client at the
	// end of the workload; the store must reject them as stale.
	OutOfOrder bool

	// --- WorkKV snapshot / compaction lifecycle ----------------------
	// All default to off; KV scenarios opt in.

	// SnapshotEvery is the applier snapshot cadence in applied entries
	// (0 = snapshots off).
	SnapshotEvery int
	// Compact retires pre-snapshot per-instance state after each
	// snapshot; CompactKeep is the retained-instance margin (default 4).
	Compact     bool
	CompactKeep int

	// ValueBytes > 0 pads every put value to this size. Large values fatten
	// the machine state until a snapshot transfer streams several chunks;
	// the transfer-chunk-loss scenario pins that. Bounded so one command
	// batch still fits a wire frame (see Validate).
	ValueBytes int

	// --- WorkKV durable storage / crash-restart ----------------------

	// Durable attaches a durable store (internal/store) to every correct
	// replica: committed entries are write-ahead logged, applied
	// boundaries marked, snapshots stamped — before application proceeds
	// (sm.Config.Persist). Off by default. The KV-Durable check
	// ("applied ⊇ fsync'd") activates with it.
	Durable bool
	// CrashRestartAt > 0 powers the lowest-ID correct replica OFF at this
	// virtual time (harness.World.Kill: volatile state, timers and dedup
	// bookkeeping die with the incarnation) and reboots it RestartDelay
	// later from its durable store alone (sm.Boot — no peer help).
	// Requires Durable. This is the one crash model: a full power cycle
	// of the whole replica stack, recovered the way production does.
	CrashRestartAt time.Duration
	// RestartDelay is the downtime between power-off and reboot (0 = the
	// runner default, 25ms). The curated crash-restart scenarios use 4ms:
	// shorter than one consensus decision at the default TimeUnit, so
	// every instance decided across the blackout still reaches the
	// rebooted replica through its peers' DECIDEs and reconvergence
	// needs zero peer snapshot transfers — which is exactly what the
	// KV-CrashRestart check asserts.
	RestartDelay time.Duration

	// --- WorkKV peer snapshot state transfer -------------------------

	// Transfer enables snapshot state transfer (sm.Transfer) on every
	// correct replica: a replica that falls more than MaxLead instances
	// behind fetches a t+1-corroborated peer snapshot and resumes from
	// its boundary. Requires SnapshotEvery > 0.
	Transfer bool
	// MaxLead overrides the log engine's replay horizon (0 = default
	// 256). Lag-transfer scenarios shrink it so a partitioned replica
	// crosses the horizon within a short run.
	MaxLead int
}

// Spec is one named scenario: resilience parameters, fault assignment,
// network schedule and workload, plus the liveness expectation under that
// schedule. Specs are pure data; Run(spec, seed) executes them.
type Spec struct {
	Name string
	// Desc is a one-line human description.
	Desc string
	// N, T, M are the paper's resilience parameters.
	N, T, M int
	// Faults lists the Byzantine behaviors, assigned to the highest IDs.
	// len(Faults) must be ≤ T.
	Faults []Fault
	// Net is the network schedule.
	Net Net
	// Work is the workload.
	Work Work
	// ExpectTermination asserts liveness: under this schedule every
	// correct process must decide (or commit the whole workload). Leave
	// false for schedules with no synchrony promise (NetAsync).
	ExpectTermination bool
	// Deadline bounds virtual time (0 = 60 s, which no passing run
	// reaches; NetAsync defaults to 3 s and Splitter schedules to 24 h).
	Deadline time.Duration
	// MaxRounds caps each engine's round loop (0 = engine default,
	// except NetAsync which defaults to 48).
	MaxRounds types.Round
	// TimeUnit scales the EA round timers (default 10 ms).
	TimeUnit time.Duration
}

// Params returns the scenario's resilience parameters.
func (s Spec) Params() types.Params { return types.Params{N: s.N, T: s.T, M: s.M} }

// ByzProcs returns the Byzantine process IDs (the highest len(Faults)
// IDs, ascending).
func (s Spec) ByzProcs() []types.ProcID {
	out := make([]types.ProcID, 0, len(s.Faults))
	for i := s.N - len(s.Faults) + 1; i <= s.N; i++ {
		out = append(out, types.ProcID(i))
	}
	return out
}

// CorrectProcs returns the correct process IDs, ascending.
func (s Spec) CorrectProcs() []types.ProcID {
	out := make([]types.ProcID, 0, s.N-len(s.Faults))
	for i := 1; i <= s.N-len(s.Faults); i++ {
		out = append(out, types.ProcID(i))
	}
	return out
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	botOK := s.Work.BotMode || s.Work.Kind == WorkLog || s.Work.Kind == WorkKV
	if err := s.Params().Validate(botOK); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if len(s.Faults) > s.T {
		return fmt.Errorf("scenario %s: %d faults exceed t=%d", s.Name, len(s.Faults), s.T)
	}
	if s.Work.Kind != WorkConsensus && s.Work.Kind != WorkLog && s.Work.Kind != WorkKV {
		return fmt.Errorf("scenario %s: unknown workload kind %v", s.Name, s.Work.Kind)
	}
	for _, f := range s.Faults {
		if f.Kind == FaultHashEquivocate && s.Work.Kind == WorkConsensus {
			return fmt.Errorf("scenario %s: hash-equivocate targets the log relay path, not single-shot consensus", s.Name)
		}
	}
	if s.Work.Compact && s.Work.SnapshotEvery <= 0 {
		return fmt.Errorf("scenario %s: Compact requires SnapshotEvery > 0", s.Name)
	}
	if (s.Work.SnapshotEvery > 0 || s.Work.Compact || s.Work.Transfer || s.Work.MaxLead > 0 ||
		s.Work.ValueBytes > 0 || s.Work.Durable || s.Work.CrashRestartAt > 0 || s.Work.RestartDelay > 0) && s.Work.Kind != WorkKV {
		return fmt.Errorf("scenario %s: snapshot/compaction/recovery/transfer/durability knobs require the kv workload", s.Name)
	}
	if s.Work.Transfer && s.Work.SnapshotEvery <= 0 {
		return fmt.Errorf("scenario %s: Transfer requires SnapshotEvery > 0", s.Name)
	}
	if s.Work.CrashRestartAt > 0 && !s.Work.Durable {
		return fmt.Errorf("scenario %s: CrashRestartAt requires Durable (the reboot reads the store)", s.Name)
	}
	if s.Work.RestartDelay > 0 && s.Work.CrashRestartAt <= 0 {
		return fmt.Errorf("scenario %s: RestartDelay without CrashRestartAt has nothing to delay", s.Name)
	}
	if s.Work.ValueBytes > 0 {
		// A whole command batch travels as ONE consensus value, and a live
		// deployment frames values through the wire codec: keep the worst
		// batch inside MaxValueLen with headroom for keys and framing, so
		// the simulated workload stays wire-legal.
		batch := s.Work.BatchSize
		if batch <= 0 {
			batch = 8
		}
		if batch*s.Work.ValueBytes > wire.MaxValueLen/2 {
			return fmt.Errorf("scenario %s: BatchSize %d × ValueBytes %d exceeds half a wire frame (%d)",
				s.Name, batch, s.Work.ValueBytes, wire.MaxValueLen/2)
		}
	}
	if s.Net.PartitionDrop && s.Net.PartitionCut <= 0 {
		return fmt.Errorf("scenario %s: PartitionDrop requires PartitionCut > 0", s.Name)
	}
	if s.Net.ChunkDropEvery != 0 {
		if s.Net.ChunkDropEvery < 2 {
			return fmt.Errorf("scenario %s: ChunkDropEvery must be ≥ 2 (dropping every chunk is a severed link, not loss)", s.Name)
		}
		if !s.Work.Transfer {
			return fmt.Errorf("scenario %s: ChunkDropEvery requires a Transfer workload (chunk frames exist nowhere else)", s.Name)
		}
	}
	if s.Net.ChunkDropUntil > 0 && s.Net.ChunkDropEvery == 0 {
		return fmt.Errorf("scenario %s: ChunkDropUntil without ChunkDropEvery bounds nothing", s.Name)
	}
	if s.Net.Kind < NetFull || s.Net.Kind > NetBisource {
		return fmt.Errorf("scenario %s: unknown net kind %v", s.Name, s.Net.Kind)
	}
	if s.Net.PartitionCut < 0 || s.Net.PartitionCut >= s.N {
		if s.Net.PartitionCut != 0 {
			return fmt.Errorf("scenario %s: partition cut %d out of range", s.Name, s.Net.PartitionCut)
		}
	}
	if p, promised := s.PromisedBisource(); promised {
		if !s.bisourceValid(p) {
			return fmt.Errorf("scenario %s: promised bisource %v is not a valid ◇⟨t+1⟩bisource", s.Name, p)
		}
	} else if s.ExpectTermination {
		return fmt.Errorf("scenario %s: termination expected but no bisource promised", s.Name)
	}
	return nil
}

// PromisedBisource returns the process the schedule promises as a
// ◇⟨t+1⟩bisource, if any: the planted process for NetBisource, the
// lowest correct process for NetFull/NetEventual (where every correct
// process qualifies), none for NetAsync.
func (s Spec) PromisedBisource() (types.ProcID, bool) {
	switch s.Net.Kind {
	case NetFull, NetEventual:
		return 1, true // process 1 is always correct (faults take the top IDs)
	case NetBisource:
		b := s.bisourceSpec()
		return b.P, true
	default:
		return 0, false
	}
}

// bisourceValid checks the ground truth of the promise on the actual
// topology: p is correct and has ≥ t timely in- and out-channels from/to
// correct processes (the self channel supplies the +1).
func (s Spec) bisourceValid(p types.ProcID) bool {
	byz := make(map[types.ProcID]bool, len(s.Faults))
	for _, id := range s.ByzProcs() {
		byz[id] = true
	}
	if byz[p] {
		return false
	}
	topo := s.Topology()
	in, out := 0, 0
	for _, q := range topo.TimelyIn(p).Members() {
		if q != p && !byz[q] {
			in++
		}
	}
	for _, q := range topo.TimelyOut(p).Members() {
		if q != p && !byz[q] {
			out++
		}
	}
	return in >= s.T && out >= s.T
}

// netDefaults fills the schedule's zero values.
func (s Spec) netDefaults() Net {
	n := s.Net
	if n.Delta <= 0 {
		n.Delta = 5 * time.Millisecond
	}
	if n.GST <= 0 && (n.Kind == NetEventual || n.Kind == NetBisource) {
		n.GST = 150 * time.Millisecond
	}
	if n.PartitionCut > 0 && n.HealAt <= 0 {
		n.HealAt = n.GST
		if n.HealAt <= 0 {
			n.HealAt = 100 * time.Millisecond
		}
	}
	return n
}

// bisourceSpec resolves the planted-bisource placement with defaults:
// process 1, In = the next t correct processes, Out = the t after those
// (wrapping over the correct IDs).
func (s Spec) bisourceSpec() network.BisourceSpec {
	n := s.netDefaults()
	b := n.Bisource
	if b.P == 0 {
		b.P = 1
	}
	if b.Delta <= 0 {
		b.Delta = n.Delta
	}
	if b.GST == 0 && n.GST > 0 {
		b.GST = types.Time(n.GST)
	}
	if len(b.In) == 0 || len(b.Out) == 0 {
		correct := s.CorrectProcs()
		others := make([]types.ProcID, 0, len(correct)-1)
		for _, q := range correct {
			if q != b.P {
				others = append(others, q)
			}
		}
		pick := func(k, off int) []types.ProcID {
			out := make([]types.ProcID, 0, k)
			for i := 0; i < k && len(others) > 0; i++ {
				out = append(out, others[(off+i)%len(others)])
			}
			return out
		}
		if len(b.In) == 0 {
			b.In = pick(s.T, 0)
		}
		if len(b.Out) == 0 {
			b.Out = pick(s.T, s.T)
		}
	}
	return b
}

// Topology materializes the schedule's channel matrix.
func (s Spec) Topology() *network.Topology {
	n := s.netDefaults()
	switch n.Kind {
	case NetFull:
		return network.FullySynchronous(s.N, n.Delta)
	case NetEventual:
		return network.EventuallySynchronous(s.N, types.Time(n.GST), n.Delta)
	case NetBisource:
		return network.PlantBisource(s.N, s.bisourceSpec())
	default:
		return network.FullyAsynchronous(s.N)
	}
}

// policy materializes the async-delay policy for the given run seed.
func (s Spec) policy(seed int64) network.DelayPolicy {
	switch s.Net.Jitter {
	case JitterClasses:
		return network.LinkClassDelay{Seed: seed}
	case JitterBursty:
		return network.LinkClassDelay{
			Seed: seed, BurstProb: 0.2, BurstDelay: 80 * time.Millisecond,
		}
	default:
		return nil // runner default: uniform 1–20 ms
	}
}

// adversaryFor materializes the scheduling-adversary overlay, nil when
// the schedule has none.
func (s Spec) adversaryFor(seed int64) network.Adversary {
	n := s.netDefaults()
	var chain adversary.Chain
	if n.PartitionCut > 0 {
		side := make(map[types.ProcID]int, s.N)
		for i := 1; i <= n.PartitionCut; i++ {
			side[types.ProcID(i)] = 1
		}
		if n.PartitionDrop {
			// Severing cut: cross-boundary traffic is lost, not queued —
			// there is no backlog to flush at the heal, so no stagger.
			chain = append(chain, &adversary.DroppingPartition{
				Side:   side,
				HealAt: types.Time(n.HealAt),
			})
		} else {
			chain = append(chain, &adversary.HealingPartition{
				Side:   side,
				HealAt: types.Time(n.HealAt),
				// The double mod keeps the stagger positive for negative seeds
				// (Go's % keeps the dividend's sign); without it the post-heal
				// backlog would flush as one simultaneous burst.
				Stagger: types.Duration((seed%7+7)%7+1) * time.Microsecond,
			})
		}
	}
	if n.ChunkDropEvery > 0 {
		chain = append(chain, &adversary.ChunkLoss{
			Every: n.ChunkDropEvery,
			Until: types.Time(n.ChunkDropUntil),
		})
	}
	if n.Splitter {
		target := make(map[types.ProcID]types.ProcID, s.N)
		for i := 1; i <= s.N; i++ {
			target[types.ProcID(i)] = types.ProcID(i%s.N + 1)
		}
		chain = append(chain, adversary.ConsensusSplitter{
			Target: target, N: s.N,
			Delay:      types.Duration(30 * time.Second),
			CoordDelay: types.Duration(600 * time.Second),
		})
	}
	if len(chain) == 0 {
		return nil
	}
	if len(chain) == 1 {
		return chain[0]
	}
	return chain
}

// values returns the proposal pool with defaults.
func (s Spec) values() []types.Value {
	if len(s.Work.Values) > 0 {
		return s.Work.Values
	}
	return []types.Value{"a", "b"}
}

// engineConfig builds the core engine knobs shared by correct processes
// and engine-backed adversaries.
func (s Spec) engineConfig() core.Config {
	cfg := core.Config{
		K:         s.Work.K,
		TimeUnit:  s.TimeUnit,
		BotMode:   s.Work.BotMode,
		MaxRounds: s.MaxRounds,
	}
	if cfg.TimeUnit <= 0 {
		cfg.TimeUnit = 10 * time.Millisecond
	}
	if s.Net.Kind == NetAsync && cfg.MaxRounds == 0 {
		cfg.MaxRounds = 48
	}
	return cfg
}

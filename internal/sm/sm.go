// Package sm is the state-machine-replication layer: it consumes the
// committed entries of a replicated log (internal/log) in total order and
// drives a deterministic application state machine, turning the ordering
// service into a replicated service.
//
// The Applier owns the snapshot/compaction lifecycle. Every SnapshotEvery
// applied entries it takes a snapshot at the next instance boundary: a
// deterministic, digest-stamped encoding of the machine state plus the
// apply position. Because applying is a pure function of the committed
// prefix and snapshot instants are a pure function of the apply position,
// every correct replica produces byte-identical snapshots at the same
// positions — the digests are the cross-replica correctness check.
//
// A snapshot makes everything before it disposable: the OnSnapshot hook is
// where the hosting runtime retires pre-snapshot per-instance state
// wholesale (log.Engine.Compact), which is what bounds memory on long
// runs. It also makes crash recovery local: with a durable store
// (Config.Persist) Boot rebuilds the machine from the stamped snapshot
// plus the write-ahead log suffix, verifying on the way that re-encoding
// the restored state reproduces the snapshot digest (a cheap
// nondeterminism detector); a replica with no usable disk catches up from
// its peers instead (Transfer, Install).
package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/log"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Machine is a deterministic application state machine. All methods are
// called from the hosting runtime's single event loop.
//
// Determinism contract: Apply's response and state change, and the bytes
// AppendSnapshot appends, must be pure functions of the machine state and
// inputs — no clocks, no randomness, no map-iteration-order dependence.
type Machine interface {
	// Apply executes one committed command and returns the response.
	Apply(cmd types.Value) types.Value
	// AppendSnapshot appends a deterministic encoding of the full state
	// to dst (the applier's snapshot payload) and returns the result.
	AppendSnapshot(dst []byte) []byte
	// Restore replaces the full state from an AppendSnapshot encoding.
	// It must be all-or-nothing: on any decode error the live state is
	// left untouched. Peer-snapshot installation (Applier.Install) relies
	// on this to reject Byzantine-supplied bytes without bricking the
	// replica (kv.Store.Restore decodes fully before swapping anything
	// in — see kv.ValidateSnapshot).
	Restore(data []byte) error
}

// Snapshot is one digest-stamped state capture.
type Snapshot struct {
	// Index: entries [0, Index) are reflected in the state.
	Index int
	// Instance: instances [0, Instance) are fully applied. Everything
	// below Instance is retirable.
	Instance types.Instance
	// Digest is SHA-256 over Data.
	Digest [32]byte
	// Data is the header-wrapped machine encoding (appendSnapHeader). In
	// a snapshot the applier took or installed it is a view into the
	// immutable transfer payload: nothing may write through it.
	Data []byte
}

// snapHeaderLen: magic byte + u64 index + u64 instance.
const snapHeaderLen = 1 + 8 + 8

const snapMagic = 'Z'

// refreshFactor sets the instance-count floor under the entry cadence:
// the applier re-stamps its snapshot after refreshFactor × SnapshotEvery
// applied INSTANCES without an entry-cadence snapshot, even if no new
// entries arrived. Instances that commit nothing — ⊥ decisions, empty
// instances a Byzantine peer keeps opening — never move an entry-cadence
// boundary, so without this floor the boundary goes stale and nothing
// below the frontier is compacted: a replica restarting into such a run
// installs the stale boundary, ends up more than MaxLead instances
// behind, and its transfer requests are declined ("snapshot not past the
// requester's boundary") forever, while the hosts' per-instance state
// (the relay's dedup scopes first) fills its cap and drops honest
// traffic for good. Refreshing at no-op boundaries keeps a fresh boundary
// on offer and the host compacting; under load the entry cadence comes
// first and the refresh never fires. Determinism is preserved because
// the refresh instant is a pure function of the applied instance
// sequence and the refreshed state is a pure function of the applied
// prefix — every correct replica re-stamps byte-identical snapshots at
// identical boundaries, so the transfer layer's t+1 corroboration still
// succeeds.
const refreshFactor = 4

// appendSnapHeader appends the apply position that precedes the machine
// bytes of a snapshot encoding.
func appendSnapHeader(dst []byte, index int, instance types.Instance) []byte {
	dst = append(dst, snapMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(index))
	return binary.LittleEndian.AppendUint64(dst, uint64(instance))
}

// DecodeSnapshot splits a snapshot encoding into position and machine
// bytes.
func DecodeSnapshot(data []byte) (index int, instance types.Instance, machine []byte, err error) {
	if len(data) < snapHeaderLen || data[0] != snapMagic {
		return 0, 0, nil, fmt.Errorf("sm: not a snapshot (%d bytes)", len(data))
	}
	index = int(binary.LittleEndian.Uint64(data[1:]))
	instance = types.Instance(binary.LittleEndian.Uint64(data[9:]))
	if index < 0 || instance < 0 {
		return 0, 0, nil, fmt.Errorf("sm: negative snapshot position")
	}
	return index, instance, data[snapHeaderLen:], nil
}

// Config assembles an Applier.
type Config struct {
	// Machine is the application state machine (required).
	Machine Machine
	// SnapshotEvery takes a snapshot once at least this many entries
	// applied since the previous one, at the next instance boundary, and
	// re-stamps it after refreshFactor × SnapshotEvery applied instances
	// without one (0 = snapshots disabled, both triggers).
	SnapshotEvery int
	// OnSnapshot fires after each snapshot. The hosting runtime hooks
	// compaction here (log.Engine.Compact with its chosen lag).
	OnSnapshot func(s Snapshot)
	// OnResponse fires with the machine's response to every applied entry
	// (client reply path; nil = discard).
	OnResponse func(e log.Entry, resp types.Value)
	// Metrics is the applier's tally (obs.NewSMMetrics), which its
	// accessors read; nil counts into private cells. Passive atomic cells;
	// increments never alter apply or snapshot behavior.
	Metrics *obs.SMMetrics
	// Tracer, if non-nil, records the apply stage of each committed
	// command (internal/xtrace). Passive.
	Tracer *xtrace.Tracer
	// Persist, if non-nil, is the durable storage backend
	// (store.Persister). The applier drives the write-ahead discipline
	// through it: every committed entry is appended BEFORE it is applied,
	// each applied instance boundary is marked (the fsync point), and
	// each snapshot is stamped as its full transfer payload — snapshot
	// plus retained dedup window (EncodeTransfer bytes) — after which the
	// store's entry prefix below the snapshot index is truncated. A
	// persist failure poisons the applier (the replica behaves as
	// crashed): continuing to apply entries the disk refused would make
	// the durable state lie about the served state. nil (the default)
	// keeps the historical fully-in-memory behavior, byte-identical.
	Persist store.Persister
	// RetainedEntries, if non-nil, returns the log engine's retained
	// committed-entry suffix (log.Engine.Entries). The applier encodes it
	// into the snapshot's payload right after the OnSnapshot hook returns
	// — i.e. after the hook's compaction — so the payload carries exactly
	// the content-dedup window every replica carries forward from that
	// boundary. Snapshot
	// state TRANSFER needs it: installing machine state alone would leave
	// the receiving replica without the dedup entries its peers still
	// hold, and the next in-flight duplicate would commit on the receiver
	// but not on the peers, forking the entry streams. Hosts that serve
	// transfers (sm.Transfer) must wire it; snapshot-only hosts can leave
	// it nil.
	RetainedEntries func() []log.Entry
}

// Applier drives a Machine from a committed log. Wire OnCommit into
// log.Config.OnCommit and OnApply into log.Config.OnApply.
type Applier struct {
	cfg Config

	applied   int // entries applied
	sinceSnap int

	snap    Snapshot // latest
	hasSnap bool
	// payload is snap's transfer payload (EncodeTransfer layout): built
	// once, immutable, shared with the durable stamp and the serve cache.
	payload []byte

	boots    int   // local durable snapshots restored via Boot
	poisoned error // set when a failed Install/Boot left the state undefined
}

// New builds an Applier.
func New(cfg Config) (*Applier, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sm: nil Machine")
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("sm: negative SnapshotEvery %d", cfg.SnapshotEvery)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewSMMetrics(nil, "")
	}
	return &Applier{cfg: cfg}, nil
}

// OnCommit applies one committed entry. Entries must arrive in log order
// (index-contiguous), which is exactly what log.Config.OnCommit delivers.
func (a *Applier) OnCommit(e log.Entry) {
	if a.poisoned != nil {
		// A failed Install or Boot left machine state and apply position
		// out of sync; applying further entries would silently fork the
		// replica.
		// The replica behaves as crashed from here on (see Err).
		return
	}
	if e.Index != a.applied {
		// A gap here is a hosting bug, not Byzantine input: the log engine
		// emits a contiguous index sequence. Applying out of order would
		// silently fork the replica, so refuse loudly.
		panic(fmt.Sprintf("sm: entry index %d applied at position %d", e.Index, a.applied))
	}
	if p := a.cfg.Persist; p != nil {
		// Write-ahead: the entry reaches the durable log before its effect
		// reaches the machine, so a crash can lose an unapplied append
		// (harmless — boot replays it) but never an applied one.
		if err := p.AppendEntry(e); err != nil {
			a.poison(fmt.Errorf("sm: persist append: %w", err))
			return
		}
	}
	resp := a.cfg.Machine.Apply(e.Cmd)
	a.cfg.Tracer.OnApplied(e.Cmd, e.Instance)
	a.applied++
	a.sinceSnap++
	a.cfg.Metrics.Applies.Inc()
	if a.cfg.OnResponse != nil {
		a.cfg.OnResponse(e, resp)
	}
}

// OnApply marks instance i fully applied; all its entries have passed
// through OnCommit. Snapshots happen here — at instance boundaries — so a
// snapshot never splits an instance's batch and its covered-instance
// watermark is exact. A snapshot is also re-stamped after
// refreshFactor × SnapshotEvery instances without an entry-cadence
// snapshot, keeping the boundary fresh across stretches of instances
// that commit nothing.
func (a *Applier) OnApply(i types.Instance, newly int) {
	if a.poisoned != nil {
		return
	}
	if p := a.cfg.Persist; p != nil {
		// Every applied instance is marked, entries or not: the mark is
		// where a durable restart resumes, and resuming below the cluster's
		// ⊥-churned frontier would strand the replica on instances whose
		// decisions nobody re-sends. MarkApplied is also the fsync point,
		// sealing the entries this instance appended.
		if err := p.MarkApplied(i + 1); err != nil {
			a.poison(fmt.Errorf("sm: persist mark: %w", err))
			return
		}
	}
	// The refresh test divides rather than multiplies, so no cadence overflows it.
	every := a.cfg.SnapshotEvery
	if every > 0 && (a.sinceSnap >= every || (i+1-a.snap.Instance)/refreshFactor >= types.Instance(every)) {
		a.takeSnapshot(i + 1)
	}
}

// takeSnapshot captures the state covering instances [0, instance),
// straight into its transfer payload: room for an eighth more than the
// previous payload makes it one allocation of about its own size (with a
// sixteenth, the retained suffix outgrew it in about one snapshot of
// five of sim-batch, each time copying the whole payload).
func (a *Applier) takeSnapshot(instance types.Instance) {
	buf := make([]byte, transferDataAt, max(transferDataAt, len(a.payload)+len(a.payload)/8))
	buf = appendSnapHeader(buf, a.applied, instance)
	buf = a.cfg.Machine.AppendSnapshot(buf)
	end := len(buf)
	a.snap = Snapshot{
		Index:    a.applied,
		Instance: instance,
		Digest:   sha256.Sum256(buf[transferDataAt:]),
		Data:     buf[transferDataAt:end:end],
	}
	a.hasSnap = true
	a.sinceSnap = 0
	a.cfg.Metrics.Snapshots.Inc()
	a.cfg.Metrics.SnapshotBytes.Add(uint64(len(a.snap.Data)))
	if a.cfg.OnSnapshot != nil {
		a.cfg.OnSnapshot(a.snap)
	}
	var retained []log.Entry
	if a.cfg.RetainedEntries != nil {
		// After the hook: OnSnapshot is where hosts compact, and the
		// window that must travel with this snapshot is the one that
		// SURVIVES that compaction (it is what every replica's dedup
		// holds from this boundary on).
		retained = a.cfg.RetainedEntries()
	}
	a.payload = sealTransfer(buf, a.snap.Digest, retained)
	a.snap.Data = a.payload[transferDataAt:end:end]
	if p := a.cfg.Persist; p != nil {
		// The durable stamp is the full transfer payload — snapshot plus
		// the retained dedup window — so boot can hand it straight to
		// Install, the exact code path a live peer-snapshot installation
		// exercises. With the snapshot durable, the store's entry prefix
		// below it is dead weight.
		if err := p.StampSnapshot(a.snap.Index, a.snap.Instance, a.payload); err != nil {
			a.poison(fmt.Errorf("sm: persist snapshot: %w", err))
			return
		}
		if err := p.TruncatePrefix(a.snap.Index); err != nil {
			a.poison(fmt.Errorf("sm: persist truncate: %w", err))
			return
		}
	}
}

// Latest returns the most recent snapshot.
func (a *Applier) Latest() (Snapshot, bool) { return a.snap, a.hasSnap }

// LatestTransfer returns the most recent snapshot together with its
// transfer payload (EncodeTransfer layout: the snapshot and the retained
// entry suffix captured at its boundary; see Config.RetainedEntries). The
// payload is immutable and shared: callers must not modify it.
func (a *Applier) LatestTransfer() (Snapshot, []byte, bool) {
	return a.snap, a.payload, a.hasSnap
}

// Applied returns the number of entries applied.
func (a *Applier) Applied() int { return a.applied }

// Snapshots returns how many snapshots have been taken.
func (a *Applier) Snapshots() int { return int(a.cfg.Metrics.Snapshots.Value()) }

// StateDigest hashes the machine's current state (SHA-256 over its
// AppendSnapshot encoding). Equal digests across replicas at equal
// applied counts certify byte-identical state.
func (a *Applier) StateDigest() [32]byte { return Digest(a.cfg.Machine) }

// Digest hashes a machine's current state (SHA-256 over its
// AppendSnapshot encoding).
func Digest(m Machine) [32]byte { return sha256.Sum256(m.AppendSnapshot(nil)) }

// Install replaces the machine state with a peer's snapshot: the state-
// transfer path for a replica that can no longer catch up by replay
// (compaction retired the echo service it needed — see log.Config.MaxLead).
// payload is the snapshot's transfer payload (EncodeTransfer layout), and
// index and instance the position it was stamped with (a corroborated
// manifest's, or a durable stamp's). It only moves FORWARD: the snapshot
// must cover strictly more entries than are currently applied, and no
// retained-suffix replay follows — the snapshot IS the new apply position.
//
// Validation is two-staged. Before any mutation: the payload must decode
// (DecodeTransfer: its digest, the snapshot header, the entry list), its
// position must match the stamp, and the position must advance — failures
// leave the applier fully usable (the Machine.Restore contract requires
// rejecting bad encodings without mutating, so a garbage snapshot from a
// Byzantine peer cannot brick the replica). After Restore succeeds, the
// restored state must re-encode to the snapshot digest; a mismatch there
// means the machine restored something it cannot reproduce
// (nondeterminism or a lossy Restore), the live state is no longer
// trustworthy, and the applier poisons itself.
//
// The applier keeps payload, which must not be modified afterwards, as
// its latest snapshot's so this replica can serve onward transfers
// itself. Install returns the decoded snapshot and the retained entry
// suffix that traveled with it (the boundary's content-dedup window):
// the caller must realign the ordering layer with them in the same
// stroke (log.Engine.InstallSnapshot with s.Instance, s.Index and the
// retained suffix) — sm.Transfer does both.
func (a *Applier) Install(payload []byte, index int, instance types.Instance) (Snapshot, []log.Entry, error) {
	return a.install(payload, index, instance, false)
}

// install is Install's body; boot distinguishes a local durable restore
// (sm.Boot) from a genuine peer transfer in the counters — "zero peer
// installs after restart" is the durability layer's whole acceptance
// test, so a boot must not inflate the transfer tally.
func (a *Applier) install(payload []byte, index int, instance types.Instance, boot bool) (Snapshot, []log.Entry, error) {
	if a.poisoned != nil {
		return Snapshot{}, nil, a.poisoned
	}
	s, retained, err := DecodeTransfer(payload)
	if err != nil {
		return Snapshot{}, nil, err
	}
	if s.Index != index || s.Instance != instance {
		return Snapshot{}, nil, fmt.Errorf("sm: snapshot header (%d, %v) contradicts stamp (%d, %v)",
			s.Index, s.Instance, index, instance)
	}
	// Strictly more entries always advances. Equal entries is the refresh
	// shape (refreshFactor): same applied prefix, later instance
	// boundary — identical state, but adopting the stamp is what lets a
	// rejoiner realign its log with the cluster's instance frontier.
	if index < a.applied || (index == a.applied && a.hasSnap && instance <= a.snap.Instance) {
		return Snapshot{}, nil, fmt.Errorf("sm: snapshot (%d entries, boundary %v) is not ahead of (%d, %v)",
			index, instance, a.applied, a.snap.Instance)
	}
	if err := a.cfg.Machine.Restore(s.Data[snapHeaderLen:]); err != nil {
		return Snapshot{}, nil, fmt.Errorf("sm: install restore: %w", err)
	}
	redo := appendSnapHeader(make([]byte, 0, len(s.Data)), index, instance)
	if sha256.Sum256(a.cfg.Machine.AppendSnapshot(redo)) != s.Digest {
		return Snapshot{}, nil, a.poison(fmt.Errorf("sm: installed state does not reproduce snapshot digest (nondeterministic machine?)"))
	}
	a.applied = index
	a.sinceSnap = 0
	a.snap = s
	a.payload = payload
	a.hasSnap = true
	if boot {
		a.boots++
	} else {
		a.cfg.Metrics.Installs.Inc()
	}
	return s, retained, nil
}

// Installs returns how many peer snapshots Install has applied.
func (a *Applier) Installs() int { return int(a.cfg.Metrics.Installs.Value()) }

// Boots returns how many local durable snapshots Boot has restored.
func (a *Applier) Boots() int { return a.boots }

// Err returns the poisoning error of a failed Install, Boot or persist
// write, if any. A poisoned applier ignores further entries (the replica
// is effectively crashed) — hosting runtimes should surface this.
func (a *Applier) Err() error { return a.poisoned }

func (a *Applier) poison(err error) error {
	a.poisoned = err
	return err
}

// replay re-applies Boot's recovered entries from the current apply
// position up to target. The machine has already been restored, so any
// failure here poisons the applier.
func (a *Applier) replay(retained []log.Entry, target int) error {
	for _, e := range retained {
		if e.Index < a.applied {
			continue
		}
		if e.Index != a.applied {
			return a.poison(fmt.Errorf("sm: retained entries have a gap at index %d (replay position %d)", e.Index, a.applied))
		}
		if e.Index >= target {
			break
		}
		a.cfg.Machine.Apply(e.Cmd)
		a.applied++
		a.sinceSnap++
	}
	if a.applied != target {
		return a.poison(fmt.Errorf("sm: replay stopped at %d of %d entries", a.applied, target))
	}
	a.cfg.Metrics.Recoveries.Inc()
	return nil
}

package obs

import "strconv"

// This file defines the per-layer metric bundles: plain structs of
// pre-registered instruments that the protocol packages hold as nil-able
// pointers. Each New*Metrics constructor returns nil when the registry is
// nil, and every instrument method no-ops on nil, so an uninstrumented
// run costs exactly one nil check per site.
//
// The labels argument is a pre-joined label body (usually `proc="3"`,
// built with Name/JoinLabels) stamped onto every series the bundle
// registers; pass "" for a single-process registry. Metric names are
// catalogued in docs/observability.md.

// LogMetrics instruments the replicated-log engine (internal/log).
type LogMetrics struct {
	// Proposals counts batch proposals started; ProposedCommands the
	// commands inside them; Committed the commands applied from decided
	// instances; NoOps the decided ⊥ instances.
	Proposals        *Counter
	ProposedCommands *Counter
	Committed        *Counter
	NoOps            *Counter
	// DroppedAhead / DroppedRetired count messages discarded by the
	// MaxLead window and the compaction floor.
	DroppedAhead   *Counter
	DroppedRetired *Counter
	// Compactions counts Compact calls that retired at least one
	// instance; RetiredInstances the instances they released.
	Compactions      *Counter
	RetiredInstances *Counter
	// SnapshotInstalls counts InstallSnapshot adoptions (state transfer).
	SnapshotInstalls *Counter
	// AppliedInstances / PendingCommands / PipelineDepth are live levels:
	// contiguously applied instances, queued-but-unproposed commands, and
	// open (proposed, undecided) instances.
	AppliedInstances *Gauge
	PendingCommands  *Gauge
	PipelineDepth    *Gauge
}

// NewLogMetrics registers the log-engine bundle.
func NewLogMetrics(r *Registry, labels string) *LogMetrics {
	if r == nil {
		return nil
	}
	return &LogMetrics{
		Proposals:        r.Counter(WithLabels("minsync_log_proposals_total", labels)),
		ProposedCommands: r.Counter(WithLabels("minsync_log_proposed_commands_total", labels)),
		Committed:        r.Counter(WithLabels("minsync_log_committed_total", labels)),
		NoOps:            r.Counter(WithLabels("minsync_log_noop_instances_total", labels)),
		DroppedAhead:     r.Counter(WithLabels("minsync_log_dropped_ahead_total", labels)),
		DroppedRetired:   r.Counter(WithLabels("minsync_log_dropped_retired_total", labels)),
		Compactions:      r.Counter(WithLabels("minsync_log_compactions_total", labels)),
		RetiredInstances: r.Counter(WithLabels("minsync_log_instances_retired_total", labels)),
		SnapshotInstalls: r.Counter(WithLabels("minsync_log_snapshot_installs_total", labels)),
		AppliedInstances: r.Gauge(WithLabels("minsync_log_applied_instances", labels)),
		PendingCommands:  r.Gauge(WithLabels("minsync_log_pending_commands", labels)),
		PipelineDepth:    r.Gauge(WithLabels("minsync_log_pipeline_depth", labels)),
	}
}

// SMMetrics instruments the state-machine applier (internal/sm).
type SMMetrics struct {
	// Applies counts committed entries fed to the machine; Snapshots the
	// snapshots taken and SnapshotBytes their encoded sizes; Recoveries
	// durable boots that restored state from the replica's own store
	// (sm.Boot); Installs adopted peer snapshots.
	Applies       *Counter
	Snapshots     *Counter
	SnapshotBytes *Counter
	Recoveries    *Counter
	Installs      *Counter
}

// NewSMMetrics registers the applier bundle.
func NewSMMetrics(r *Registry, labels string) *SMMetrics {
	if r == nil {
		return nil
	}
	return &SMMetrics{
		Applies:       r.Counter(WithLabels("minsync_sm_applies_total", labels)),
		Snapshots:     r.Counter(WithLabels("minsync_sm_snapshots_total", labels)),
		SnapshotBytes: r.Counter(WithLabels("minsync_sm_snapshot_bytes_total", labels)),
		Recoveries:    r.Counter(WithLabels("minsync_sm_recoveries_total", labels)),
		Installs:      r.Counter(WithLabels("minsync_sm_installs_total", labels)),
	}
}

// KVMetrics instruments the KV store's session layer (internal/kv).
type KVMetrics struct {
	// Applies counts state-mutating executions; SessionDups retried
	// commands answered from the session cache; SessionStales rejected
	// out-of-order session sequence numbers; BadCommands undecodable
	// commands.
	Applies       *Counter
	SessionDups   *Counter
	SessionStales *Counter
	BadCommands   *Counter
	// Keys and Sessions are live table sizes.
	Keys     *Gauge
	Sessions *Gauge
}

// NewKVMetrics registers the KV-store bundle.
func NewKVMetrics(r *Registry, labels string) *KVMetrics {
	if r == nil {
		return nil
	}
	return &KVMetrics{
		Applies:       r.Counter(WithLabels("minsync_kv_applies_total", labels)),
		SessionDups:   r.Counter(WithLabels("minsync_kv_session_dups_total", labels)),
		SessionStales: r.Counter(WithLabels("minsync_kv_session_stales_total", labels)),
		BadCommands:   r.Counter(WithLabels("minsync_kv_bad_commands_total", labels)),
		Keys:          r.Gauge(WithLabels("minsync_kv_keys", labels)),
		Sessions:      r.Gauge(WithLabels("minsync_kv_sessions", labels)),
	}
}

// TransferMetrics instruments snapshot state transfer (sm.Transfer).
type TransferMetrics struct {
	// Requests counts fetches broadcast by this replica; Served snapshots
	// it answered to laggards; Installs corroborated snapshots it
	// adopted; Rejected candidate payloads discarded (stale boundary,
	// malformed, digest mismatch, overflow).
	Requests *Counter
	Served   *Counter
	Installs *Counter
	Rejected *Counter
	// ChunksServed counts chunk frames sent to downloaders;
	// ChunksReceived chunk frames accepted into a download;
	// ChunkRejected chunk/ack frames discarded (hash mismatch,
	// off-manifest range, stale digest).
	ChunksServed   *Counter
	ChunksReceived *Counter
	ChunkRejected  *Counter
}

// NewTransferMetrics registers the transfer bundle.
func NewTransferMetrics(r *Registry, labels string) *TransferMetrics {
	if r == nil {
		return nil
	}
	return &TransferMetrics{
		Requests:       r.Counter(WithLabels("minsync_transfer_requests_total", labels)),
		Served:         r.Counter(WithLabels("minsync_transfer_served_total", labels)),
		Installs:       r.Counter(WithLabels("minsync_transfer_installs_total", labels)),
		Rejected:       r.Counter(WithLabels("minsync_transfer_rejected_total", labels)),
		ChunksServed:   r.Counter(WithLabels("minsync_transfer_chunks_served_total", labels)),
		ChunksReceived: r.Counter(WithLabels("minsync_transfer_chunks_received_total", labels)),
		ChunkRejected:  r.Counter(WithLabels("minsync_transfer_chunk_rejected_total", labels)),
	}
}

// PoolMetrics instruments the admission-controlled command pool
// (internal/txpool) that fronts the log engine on a serving replica.
type PoolMetrics struct {
	// Admitted counts commands that entered the pool as fresh work;
	// Deduped arrivals that joined an already-pending (client, seq) entry
	// instead of proposing again; Shed arrivals rejected because the pool
	// was at capacity; Resolved pending entries answered by a committed
	// response; Expired pending entries dropped by the TTL sweep without
	// ever resolving.
	Admitted *Counter
	Deduped  *Counter
	Shed     *Counter
	Resolved *Counter
	Expired  *Counter
	// Pending is the live pool depth (entries admitted but not yet
	// resolved or expired).
	Pending *Gauge
}

// NewPoolMetrics registers the admission-pool bundle.
func NewPoolMetrics(r *Registry, labels string) *PoolMetrics {
	if r == nil {
		return nil
	}
	return &PoolMetrics{
		Admitted: r.Counter(WithLabels("minsync_pool_admitted_total", labels)),
		Deduped:  r.Counter(WithLabels("minsync_pool_deduped_total", labels)),
		Shed:     r.Counter(WithLabels("minsync_pool_shed_total", labels)),
		Resolved: r.Counter(WithLabels("minsync_pool_resolved_total", labels)),
		Expired:  r.Counter(WithLabels("minsync_pool_expired_total", labels)),
		Pending:  r.Gauge(WithLabels("minsync_pool_pending", labels)),
	}
}

// DedupMetrics instruments the per-process message dispatcher
// (proto.Node): first-message dedup and instance retirement.
type DedupMetrics struct {
	// DroppedDuplicates counts messages killed by the first-message rule;
	// DroppedRetired messages below the compaction floor;
	// RetiredInstances dedup sub-maps released by retirement.
	DroppedDuplicates *Counter
	DroppedRetired    *Counter
	RetiredInstances  *Counter
	// LiveInstances is the number of instances currently holding dedup
	// state.
	LiveInstances *Gauge
}

// NewDedupMetrics registers the dispatcher bundle.
func NewDedupMetrics(r *Registry, labels string) *DedupMetrics {
	if r == nil {
		return nil
	}
	return &DedupMetrics{
		DroppedDuplicates: r.Counter(WithLabels("minsync_dedup_dropped_total", labels)),
		DroppedRetired:    r.Counter(WithLabels("minsync_dedup_dropped_retired_total", labels)),
		RetiredInstances:  r.Counter(WithLabels("minsync_dedup_retired_instances_total", labels)),
		LiveInstances:     r.Gauge(WithLabels("minsync_dedup_live_instances", labels)),
	}
}

// RBMetrics instruments reliable broadcast (internal/rb) — the Θ(n²)
// echo/ready amplification volume that dominates wire traffic.
type RBMetrics struct {
	// Broadcasts counts RB_Broadcast invocations; Echoes and Readies the
	// ECHO/READY messages this process originated; Delivers the RB
	// deliveries handed up the stack.
	Broadcasts *Counter
	Echoes     *Counter
	Readies    *Counter
	Delivers   *Counter
	// The coalescing-relay instruments (rb.Relay). FramesCoalesced counts
	// vector frames this process flushed; FrameEntries is the
	// entries-per-frame distribution (the coalescing factor); Pulls counts
	// hash-before-value resolution requests sent; Hashes the SHA-256s of
	// values; ParkDrops counts entries discarded because the parking lot
	// was full (pressure from hash-without-value starvation attacks).
	FramesCoalesced *Counter
	FrameEntries    *Histogram
	Pulls           *Counter
	Hashes          *Counter
	ParkDrops       *Counter
	// FlushesIdle/Timer/Full split FramesCoalesced by what ended the hold
	// (one series, label cause): the host ran out of input, the
	// quantum-grid timer fired first, the buffer filled. A timer share
	// near 1 on a lightly loaded node means coalescing is costing each
	// hop a hold of up to one quantum.
	FlushesIdle  *Counter
	FlushesTimer *Counter
	FlushesFull  *Counter
	// Hold is the time each flushed frame was held, in nanoseconds: from
	// the first entry buffered into it to the flush, whatever the cause.
	Hold *Histogram
	// The relay's other defensive drops. All four stay at zero on a
	// healthy cluster of correct processes: ScopeDrops counts vector
	// entries refused because the dedup-scope table was full (or the
	// origin names no process) — state that only compaction retires, so a
	// climbing value means instances are piling up uncompacted and honest
	// ECHO/READY traffic is being lost; WindowDrops entries outside the
	// engine's delivery window, passed on without relay state; CacheDrops
	// remote values not cached at the byte budget; BadFrames malformed
	// carrier frames.
	ScopeDrops  *Counter
	WindowDrops *Counter
	CacheDrops  *Counter
	BadFrames   *Counter
}

// FrameEntriesBuckets are the entries-per-frame histogram bounds: the
// interesting range spans "no coalescing happened" (1) through the
// pipeline-wide batches of a loaded large-n run.
var FrameEntriesBuckets = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// NewRBMetrics registers the reliable-broadcast bundle.
func NewRBMetrics(r *Registry, labels string) *RBMetrics {
	if r == nil {
		return nil
	}
	flushes := func(cause string) *Counter {
		return r.Counter(WithLabels("minsync_rb_flushes_total", JoinLabels(labels, `cause="`+cause+`"`)))
	}
	return &RBMetrics{
		Broadcasts:      r.Counter(WithLabels("minsync_rb_broadcasts_total", labels)),
		Echoes:          r.Counter(WithLabels("minsync_rb_echoes_total", labels)),
		Readies:         r.Counter(WithLabels("minsync_rb_readies_total", labels)),
		Delivers:        r.Counter(WithLabels("minsync_rb_delivers_total", labels)),
		FramesCoalesced: r.Counter(WithLabels("minsync_rb_frames_coalesced_total", labels)),
		FrameEntries:    r.Histogram(WithLabels("minsync_rb_frame_entries", labels), FrameEntriesBuckets),
		Pulls:           r.Counter(WithLabels("minsync_rb_pulls_total", labels)),
		Hashes:          r.Counter(WithLabels("minsync_rb_hashes_total", labels)),
		ParkDrops:       r.Counter(WithLabels("minsync_rb_park_drops_total", labels)),
		FlushesIdle:     flushes("idle"),
		FlushesTimer:    flushes("timer"),
		FlushesFull:     flushes("full"),
		Hold:            r.Histogram(WithLabels("minsync_rb_hold_ns", labels), nil),
		ScopeDrops:      r.Counter(WithLabels("minsync_rb_scope_drops_total", labels)),
		WindowDrops:     r.Counter(WithLabels("minsync_rb_window_drops_total", labels)),
		CacheDrops:      r.Counter(WithLabels("minsync_rb_cache_drops_total", labels)),
		BadFrames:       r.Counter(WithLabels("minsync_rb_bad_frames_total", labels)),
	}
}

// NodeMetrics instruments the live runtime loop (internal/rt).
type NodeMetrics struct {
	// Posted counts events enqueued to the event loop (inbound messages,
	// timer fires, local posts); InboxDepth is the loop backlog after the
	// most recent enqueue.
	Posted     *Counter
	InboxDepth *Gauge
}

// NewNodeMetrics registers the runtime bundle.
func NewNodeMetrics(r *Registry, labels string) *NodeMetrics {
	if r == nil {
		return nil
	}
	return &NodeMetrics{
		Posted:     r.Counter(WithLabels("minsync_rt_posted_total", labels)),
		InboxDepth: r.Gauge(WithLabels("minsync_rt_inbox_depth", labels)),
	}
}

// maxWireKind bounds the per-kind counter arrays in WireMetrics. Wire
// kinds are small positive integers (proto.MsgKind starts at 1), and a
// transport registers at most maxWireKind-1 of them; frames whose kind
// has no series of its own count under kind="other".
const maxWireKind = 32

// WireMetrics instruments a TCP transport (internal/netx): frames and
// bytes by direction and wire kind, per-peer frame counts and outbound
// queue depth, connection churn and dropped frames. Kind lookup is a
// direct array index so the per-frame cost is one atomic add per series.
type WireMetrics struct {
	// FramesSent/BytesSent and FramesRecv/BytesRecv are indexed by wire
	// kind; index 0 and every index past the registered kinds share the
	// "other" counters. Sent frames are frames written to the connection,
	// not frames queued.
	FramesSent [maxWireKind]*Counter
	BytesSent  [maxWireKind]*Counter
	FramesRecv [maxWireKind]*Counter
	BytesRecv  [maxWireKind]*Counter
	// PeerSent/PeerRecv count frames exchanged with each configured peer.
	PeerSent map[int]*Counter
	PeerRecv map[int]*Counter
	// QueueBytes is each peer link's outbound backlog: bytes queued or
	// being written.
	QueueBytes map[int]*Gauge
	// Connects counts successful dials (first connect and reconnects
	// alike); Rejected counts inbound frames discarded before dispatch.
	Connects *Counter
	Rejected *Counter
	// DroppedDown counts outbound frames lost to a link without a
	// connection (dial failed, or the write failed); DroppedStalled those
	// lost to a peer that stopped reading (no write progress within the
	// link's deadline, or a full queue).
	DroppedDown    *Counter
	DroppedStalled *Counter
}

// NewWireMetrics registers the transport bundle. kinds is the number of
// valid wire kinds (kind values 1..kinds get their own series; any other
// kind counts as "other"), kindName renders a kind label, and peers lists
// the remote process IDs.
func NewWireMetrics(r *Registry, labels string, kinds int, kindName func(int) string, peers []int) *WireMetrics {
	if r == nil {
		return nil
	}
	if kinds >= maxWireKind {
		kinds = maxWireKind - 1
	}
	dropped := func(reason string) *Counter {
		return r.Counter(WithLabels("minsync_wire_dropped_frames_total", JoinLabels(labels, `reason="`+reason+`"`)))
	}
	m := &WireMetrics{
		PeerSent:       make(map[int]*Counter, len(peers)),
		PeerRecv:       make(map[int]*Counter, len(peers)),
		QueueBytes:     make(map[int]*Gauge, len(peers)),
		Connects:       r.Counter(WithLabels("minsync_wire_connects_total", labels)),
		Rejected:       r.Counter(WithLabels("minsync_wire_rejected_frames_total", labels)),
		DroppedDown:    dropped("down"),
		DroppedStalled: dropped("stalled"),
	}
	series := func(base, dir, kind string) *Counter {
		lbl := JoinLabels(labels, `dir="`+dir+`"`, `kind="`+kind+`"`)
		return r.Counter(WithLabels(base, lbl))
	}
	for k := 0; k <= kinds; k++ {
		kind := "other"
		if k > 0 {
			kind = kindName(k)
		}
		m.FramesSent[k] = series("minsync_wire_frames_total", "sent", kind)
		m.BytesSent[k] = series("minsync_wire_bytes_total", "sent", kind)
		m.FramesRecv[k] = series("minsync_wire_frames_total", "recv", kind)
		m.BytesRecv[k] = series("minsync_wire_bytes_total", "recv", kind)
	}
	for k := kinds + 1; k < maxWireKind; k++ {
		m.FramesSent[k], m.BytesSent[k] = m.FramesSent[0], m.BytesSent[0]
		m.FramesRecv[k], m.BytesRecv[k] = m.FramesRecv[0], m.BytesRecv[0]
	}
	for _, p := range peers {
		peer := strconv.Itoa(p)
		m.PeerSent[p] = r.Counter(WithLabels("minsync_wire_peer_frames_total",
			JoinLabels(labels, `dir="sent"`, `peer="`+peer+`"`)))
		m.PeerRecv[p] = r.Counter(WithLabels("minsync_wire_peer_frames_total",
			JoinLabels(labels, `dir="recv"`, `peer="`+peer+`"`)))
		m.QueueBytes[p] = r.Gauge(WithLabels("minsync_wire_queue_bytes",
			JoinLabels(labels, `peer="`+peer+`"`)))
	}
	return m
}

// kindIndex clamps a wire kind into the counter arrays' index space.
func kindIndex(kind int) int {
	if kind <= 0 || kind >= maxWireKind {
		return 0
	}
	return kind
}

// Sent records one outbound frame of the given wire kind and body size.
// Safe on a nil receiver.
func (m *WireMetrics) Sent(kind, peer, bytes int) {
	if m == nil {
		return
	}
	i := kindIndex(kind)
	m.FramesSent[i].Inc()
	m.BytesSent[i].Add(uint64(bytes))
	m.PeerSent[peer].Inc()
}

// Recv records one inbound frame. Safe on a nil receiver.
func (m *WireMetrics) Recv(kind, peer, bytes int) {
	if m == nil {
		return
	}
	i := kindIndex(kind)
	m.FramesRecv[i].Inc()
	m.BytesRecv[i].Add(uint64(bytes))
	m.PeerRecv[peer].Inc()
}

// CommitLatencyName is the canonical commit-latency histogram series
// (nanoseconds, DefaultLatencyBuckets). Runners and live nodes register
// it so bench tooling can find it by name.
const CommitLatencyName = "minsync_commit_latency_ns"

// NewCommitLatency registers the end-to-end commit-latency histogram
// (submission → first local commit, in nanoseconds).
func NewCommitLatency(r *Registry) *Histogram {
	return r.Histogram(CommitLatencyName, nil)
}

// Stage keys for the per-command stage-latency breakdown (see
// internal/xtrace). Untyped so both obs and xtrace can share them.
const (
	StageAdmitWait = "admit_wait"
	StageBatchWait = "batch_wait"
	StageConsensus = "consensus"
	StageApply     = "apply"
	StageRespond   = "respond"
)

// StageNames lists the canonical command stages in pipeline order —
// the iteration order bench tooling and renderers use.
var StageNames = []string{StageAdmitWait, StageBatchWait, StageConsensus, StageApply, StageRespond}

// StageLatencyName is the canonical stage-latency histogram series
// (nanoseconds, DefaultLatencyBuckets, one cell per stage label).
const StageLatencyName = "minsync_stage_latency_ns"

// StageMetrics bundles the five per-command stage-latency histograms
// an xtrace.Tracer feeds. Passive; nil-safe like every bundle.
type StageMetrics struct {
	AdmitWait *Histogram
	BatchWait *Histogram
	Consensus *Histogram
	Apply     *Histogram
	Respond   *Histogram
}

// NewStageMetrics registers the stage-latency histograms under the
// given extra labels (each cell also carries stage="..."). Returns nil
// when r is nil so callers stay passive by default.
func NewStageMetrics(r *Registry, labels string) *StageMetrics {
	if r == nil {
		return nil
	}
	h := func(stage string) *Histogram {
		return r.Histogram(WithLabels(StageLatencyName, JoinLabels(labels, `stage="`+stage+`"`)), nil)
	}
	return &StageMetrics{
		AdmitWait: h(StageAdmitWait),
		BatchWait: h(StageBatchWait),
		Consensus: h(StageConsensus),
		Apply:     h(StageApply),
		Respond:   h(StageRespond),
	}
}

// Stage returns the histogram for a stage key (nil for unknown keys or
// a nil bundle).
func (m *StageMetrics) Stage(name string) *Histogram {
	if m == nil {
		return nil
	}
	switch name {
	case StageAdmitWait:
		return m.AdmitWait
	case StageBatchWait:
		return m.BatchWait
	case StageConsensus:
		return m.Consensus
	case StageApply:
		return m.Apply
	case StageRespond:
		return m.Respond
	}
	return nil
}

// Observe records one stage latency in nanoseconds. Nil-safe on the
// bundle and tolerant of unknown stage keys.
func (m *StageMetrics) Observe(stage string, ns int64) {
	if h := m.Stage(stage); h != nil {
		h.Observe(ns)
	}
}

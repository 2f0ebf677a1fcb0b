package obs

import "strconv"

// This file defines the metric bundles: plain structs of instruments,
// each its layer's only tally: the layer always counts into it and its
// accessors read it. A registry decides only whether a count is
// exported: with one, every constructor registers each cell under its
// series name; with nil, it returns private cells nobody exports.
//
// The labels argument is a pre-joined label body (usually `proc="3"`,
// built with JoinLabels) stamped onto every series the bundle
// registers; pass "" for a single-process registry. Metric names are
// catalogued in docs/observability.md.

// cells hands out one bundle's instruments: registered in r under the
// bundle's labels, or private when r is nil.
type cells struct {
	r      *Registry
	labels string
}

// counter returns the named counter.
func (c cells) counter(name string) *Counter {
	if c.r == nil {
		return new(Counter)
	}
	return c.r.Counter(WithLabels(name, c.labels))
}

// gauge returns the named gauge.
func (c cells) gauge(name string) *Gauge {
	if c.r == nil {
		return new(Gauge)
	}
	return c.r.Gauge(WithLabels(name, c.labels))
}

// histogram returns the named histogram over bounds (nil =
// DefaultLatencyBuckets).
func (c cells) histogram(name string, bounds []int64) *Histogram {
	if c.r == nil {
		return newHistogram(bounds)
	}
	return c.r.Histogram(WithLabels(name, c.labels), bounds)
}

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

// NewLogMetrics builds the log-engine bundle, registered in r when r is
// non-nil.
func NewLogMetrics(r *Registry, labels string) *LogMetrics {
	c := cells{r, labels}
	return &LogMetrics{
		Proposals:        c.counter("minsync_log_proposals_total"),
		ProposedCommands: c.counter("minsync_log_proposed_commands_total"),
		Committed:        c.counter("minsync_log_committed_total"),
		NoOps:            c.counter("minsync_log_noop_instances_total"),
		DroppedAhead:     c.counter("minsync_log_dropped_ahead_total"),
		DroppedRetired:   c.counter("minsync_log_dropped_retired_total"),
		Compactions:      c.counter("minsync_log_compactions_total"),
		RetiredInstances: c.counter("minsync_log_instances_retired_total"),
		SnapshotInstalls: c.counter("minsync_log_snapshot_installs_total"),
		AppliedInstances: c.gauge("minsync_log_applied_instances"),
		PendingCommands:  c.gauge("minsync_log_pending_commands"),
		PipelineDepth:    c.gauge("minsync_log_pipeline_depth"),
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

// NewSMMetrics builds the applier bundle, registered in r when r is
// non-nil.
func NewSMMetrics(r *Registry, labels string) *SMMetrics {
	c := cells{r, labels}
	return &SMMetrics{
		Applies:       c.counter("minsync_sm_applies_total"),
		Snapshots:     c.counter("minsync_sm_snapshots_total"),
		SnapshotBytes: c.counter("minsync_sm_snapshot_bytes_total"),
		Recoveries:    c.counter("minsync_sm_recoveries_total"),
		Installs:      c.counter("minsync_sm_installs_total"),
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

// NewKVMetrics builds the KV-store bundle, registered in r when r is
// non-nil.
func NewKVMetrics(r *Registry, labels string) *KVMetrics {
	c := cells{r, labels}
	return &KVMetrics{
		Applies:       c.counter("minsync_kv_applies_total"),
		SessionDups:   c.counter("minsync_kv_session_dups_total"),
		SessionStales: c.counter("minsync_kv_session_stales_total"),
		BadCommands:   c.counter("minsync_kv_bad_commands_total"),
		Keys:          c.gauge("minsync_kv_keys"),
		Sessions:      c.gauge("minsync_kv_sessions"),
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

// NewTransferMetrics builds the transfer bundle, registered in r when r
// is non-nil.
func NewTransferMetrics(r *Registry, labels string) *TransferMetrics {
	c := cells{r, labels}
	return &TransferMetrics{
		Requests:       c.counter("minsync_transfer_requests_total"),
		Served:         c.counter("minsync_transfer_served_total"),
		Installs:       c.counter("minsync_transfer_installs_total"),
		Rejected:       c.counter("minsync_transfer_rejected_total"),
		ChunksServed:   c.counter("minsync_transfer_chunks_served_total"),
		ChunksReceived: c.counter("minsync_transfer_chunks_received_total"),
		ChunkRejected:  c.counter("minsync_transfer_chunk_rejected_total"),
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

// NewPoolMetrics builds the admission-pool bundle, registered in r when
// r is non-nil.
func NewPoolMetrics(r *Registry, labels string) *PoolMetrics {
	c := cells{r, labels}
	return &PoolMetrics{
		Admitted: c.counter("minsync_pool_admitted_total"),
		Deduped:  c.counter("minsync_pool_deduped_total"),
		Shed:     c.counter("minsync_pool_shed_total"),
		Resolved: c.counter("minsync_pool_resolved_total"),
		Expired:  c.counter("minsync_pool_expired_total"),
		Pending:  c.gauge("minsync_pool_pending"),
	}
}

// DedupMetrics counts what the first-message rule discarded on a
// process: a log engine's loose-message drops on a replica (its vector
// entries count on RBMetrics.DupEntries), or a proto.Node's drops in
// front of a simulated single-shot engine or adversary behavior.
type DedupMetrics struct {
	// DroppedDuplicates counts messages killed by the first-message rule.
	DroppedDuplicates *Counter
}

// NewDedupMetrics builds the first-message bundle, registered in r when r
// is non-nil.
func NewDedupMetrics(r *Registry, labels string) *DedupMetrics {
	return &DedupMetrics{
		DroppedDuplicates: cells{r, labels}.counter("minsync_dedup_dropped_total"),
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
	// entries and loose messages refused by the first-message table —
	// identities no correct process sends (an origin naming no process, a
	// kind outside its module), or a full dedup-scope table, state that
	// only compaction retires, so a climbing value then means instances
	// are piling up uncompacted and honest traffic is being lost;
	// WindowDrops entries outside the
	// engine's delivery window, passed on without relay state; CacheDrops
	// remote values not cached at the byte budget; BadFrames malformed
	// carrier frames.
	ScopeDrops  *Counter
	WindowDrops *Counter
	CacheDrops  *Counter
	BadFrames   *Counter
	// DupEntries counts vector entries dropped by the first-message rule:
	// a repeat of a (sender, kind, tag, origin) already seen for its
	// instance (loose repeats count on DedupMetrics). Correct senders
	// repeat none, so a rising count names a Byzantine or replaying peer.
	DupEntries *Counter
}

// FrameEntriesBuckets are the entries-per-frame histogram bounds: the
// interesting range spans "no coalescing happened" (1) through the
// pipeline-wide batches of a loaded large-n run.
var FrameEntriesBuckets = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// NewRBMetrics builds the reliable-broadcast bundle, registered in r
// when r is non-nil.
func NewRBMetrics(r *Registry, labels string) *RBMetrics {
	c := cells{r, labels}
	flushes := func(cause string) *Counter {
		return cells{r, JoinLabels(labels, `cause="`+cause+`"`)}.counter("minsync_rb_flushes_total")
	}
	return &RBMetrics{
		Broadcasts:      c.counter("minsync_rb_broadcasts_total"),
		Echoes:          c.counter("minsync_rb_echoes_total"),
		Readies:         c.counter("minsync_rb_readies_total"),
		Delivers:        c.counter("minsync_rb_delivers_total"),
		FramesCoalesced: c.counter("minsync_rb_frames_coalesced_total"),
		FrameEntries:    c.histogram("minsync_rb_frame_entries", FrameEntriesBuckets),
		Pulls:           c.counter("minsync_rb_pulls_total"),
		Hashes:          c.counter("minsync_rb_hashes_total"),
		ParkDrops:       c.counter("minsync_rb_park_drops_total"),
		FlushesIdle:     flushes("idle"),
		FlushesTimer:    flushes("timer"),
		FlushesFull:     flushes("full"),
		Hold:            c.histogram("minsync_rb_hold_ns", nil),
		ScopeDrops:      c.counter("minsync_rb_scope_drops_total"),
		WindowDrops:     c.counter("minsync_rb_window_drops_total"),
		CacheDrops:      c.counter("minsync_rb_cache_drops_total"),
		BadFrames:       c.counter("minsync_rb_bad_frames_total"),
		DupEntries:      c.counter("minsync_rb_dup_entries_total"),
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

// NewNodeMetrics builds the runtime bundle, registered in r when r is
// non-nil.
func NewNodeMetrics(r *Registry, labels string) *NodeMetrics {
	c := cells{r, labels}
	return &NodeMetrics{
		Posted:     c.counter("minsync_rt_posted_total"),
		InboxDepth: c.gauge("minsync_rt_inbox_depth"),
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

// NewWireMetrics builds the transport bundle, registered in r when r is
// non-nil. kinds is the number of valid wire kinds (kind values 1..kinds
// get their own series; any other kind counts as "other"), kindName
// renders a kind label, and peers lists the remote process IDs.
func NewWireMetrics(r *Registry, labels string, kinds int, kindName func(int) string, peers []int) *WireMetrics {
	if kinds >= maxWireKind {
		kinds = maxWireKind - 1
	}
	c := cells{r, labels}
	dropped := func(reason string) *Counter {
		return cells{r, JoinLabels(labels, `reason="`+reason+`"`)}.counter("minsync_wire_dropped_frames_total")
	}
	m := &WireMetrics{
		PeerSent:       make(map[int]*Counter, len(peers)),
		PeerRecv:       make(map[int]*Counter, len(peers)),
		QueueBytes:     make(map[int]*Gauge, len(peers)),
		Connects:       c.counter("minsync_wire_connects_total"),
		Rejected:       c.counter("minsync_wire_rejected_frames_total"),
		DroppedDown:    dropped("down"),
		DroppedStalled: dropped("stalled"),
	}
	for k := 0; k <= kinds; k++ {
		kind := "other"
		if k > 0 {
			kind = kindName(k)
		}
		sent := cells{r, JoinLabels(labels, `dir="sent"`, `kind="`+kind+`"`)}
		recv := cells{r, JoinLabels(labels, `dir="recv"`, `kind="`+kind+`"`)}
		m.FramesSent[k] = sent.counter("minsync_wire_frames_total")
		m.BytesSent[k] = sent.counter("minsync_wire_bytes_total")
		m.FramesRecv[k] = recv.counter("minsync_wire_frames_total")
		m.BytesRecv[k] = recv.counter("minsync_wire_bytes_total")
	}
	for k := kinds + 1; k < maxWireKind; k++ {
		m.FramesSent[k], m.BytesSent[k] = m.FramesSent[0], m.BytesSent[0]
		m.FramesRecv[k], m.BytesRecv[k] = m.FramesRecv[0], m.BytesRecv[0]
	}
	for _, p := range peers {
		peer := `peer="` + strconv.Itoa(p) + `"`
		m.PeerSent[p] = cells{r, JoinLabels(labels, `dir="sent"`, peer)}.counter("minsync_wire_peer_frames_total")
		m.PeerRecv[p] = cells{r, JoinLabels(labels, `dir="recv"`, peer)}.counter("minsync_wire_peer_frames_total")
		m.QueueBytes[p] = cells{r, JoinLabels(labels, peer)}.gauge("minsync_wire_queue_bytes")
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
func (m *WireMetrics) Sent(kind, peer, bytes int) {
	i := kindIndex(kind)
	m.FramesSent[i].Inc()
	m.BytesSent[i].Add(uint64(bytes))
	m.PeerSent[peer].Inc()
}

// Recv records one inbound frame.
func (m *WireMetrics) Recv(kind, peer, bytes int) {
	i := kindIndex(kind)
	m.FramesRecv[i].Inc()
	m.BytesRecv[i].Add(uint64(bytes))
	m.PeerRecv[peer].Inc()
}

// CommitLatencyName is the canonical commit-latency histogram series
// (nanoseconds, DefaultLatencyBuckets). Runners and live nodes register
// it so bench tooling can find it by name.
const CommitLatencyName = "minsync_commit_latency_ns"

// NewCommitLatency builds the end-to-end commit-latency histogram
// (submission → first local commit, in nanoseconds), registered in r
// when r is non-nil.
func NewCommitLatency(r *Registry) *Histogram {
	return cells{r, ""}.histogram(CommitLatencyName, nil)
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
// an xtrace.Tracer feeds.
type StageMetrics struct {
	AdmitWait *Histogram
	BatchWait *Histogram
	Consensus *Histogram
	Apply     *Histogram
	Respond   *Histogram
}

// NewStageMetrics builds the stage-latency histograms under the given
// extra labels (each cell also carries stage="..."), registered in r
// when r is non-nil.
func NewStageMetrics(r *Registry, labels string) *StageMetrics {
	h := func(stage string) *Histogram {
		return cells{r, JoinLabels(labels, `stage="`+stage+`"`)}.histogram(StageLatencyName, nil)
	}
	return &StageMetrics{
		AdmitWait: h(StageAdmitWait),
		BatchWait: h(StageBatchWait),
		Consensus: h(StageConsensus),
		Apply:     h(StageApply),
		Respond:   h(StageRespond),
	}
}

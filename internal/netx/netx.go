// Package netx is a TCP transport for the consensus stack: length-prefixed
// frames of wire-encoded messages over one connection per ordered peer
// pair, with an identification handshake. Each peer has a link: Send
// queues on it and returns, and the link's writer goroutine dials, writes
// and fails on its own time, so the caller's step never waits for a peer.
// Every link dials its peer at boot, before any frame asks for it, and
// Linked(k) reports when k of them have connected: a process can open for
// business once it reaches a quorum rather than after a guessed delay.
// Each connection is watched for the peer closing it, so a link to a
// peer that went away reads down before a write into it is lost.
// Multicast queues one encoding of a message on several links. Inbound, a
// frame that fits the connection's read buffer is decoded where it lies.
//
// Model note: the paper assumes reliable authenticated point-to-point
// channels — a peer cannot impersonate another (§2.1). This transport
// implements the identification by a first-frame handshake and therefore
// trusts the peer's claimed identity; a production deployment would bind
// identities cryptographically (e.g. mutual TLS). Everything above the
// transport already tolerates Byzantine *content*, so the trust boundary
// is exactly the identity claim.
package netx

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/types"
	"repro/internal/wire"
)

const (
	// maxFrame bounds incoming frames (wire's value limit plus header slack).
	maxFrame = wire.MaxValueLen + 64
	// maxQueueBytes bounds what one link holds unwritten. It limits memory
	// only: a peer that reads drains its link far faster than a process
	// fills 64 MiB, so a frame refused here is one the peer stopped taking.
	maxQueueBytes = 64 << 20
	// A link whose dial fails refuses frames for a backoff that doubles
	// up to maxBackoff, and is reset by a successful dial; the peer's own
	// hello ends the current wait early (see link).
	maxBackoff = time.Second
	// closeGrace is how long Close lets the writers put what Send already
	// accepted on live connections.
	closeGrace = 100 * time.Millisecond
	// readBuffer sizes each inbound connection's bufio.Reader.
	readBuffer = 32 << 10
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
)

// stallTimeout is how long a write may make no progress before the link
// decides the peer is not reading. A variable only so that the package's
// tests can shorten it (export_test.go); Listen copies it.
var stallTimeout = 5 * time.Second

// minBackoff is the first wait after a failed dial. A variable only so
// that the package's tests can lengthen it (export_test.go); Listen
// copies it.
var minBackoff = 10 * time.Millisecond

// dialTCP opens a link's connection. A variable only so that the
// package's tests can watch the attempts (export_test.go); Listen copies
// it.
var dialTCP = func(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// RecvFunc consumes inbound messages. It is called from per-connection
// reader goroutines; callers must serialize internally (internal/rt posts
// to its event loop).
type RecvFunc func(from types.ProcID, m proto.Message)

// Config configures a Transport.
type Config struct {
	// Self is this process's ID.
	Self types.ProcID
	// Addrs maps every process to its TCP address. Addrs[Self] is the
	// listen address.
	Addrs map[types.ProcID]string
	// Recv receives inbound messages (required).
	Recv RecvFunc
	// Logf, if non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
	// Metrics is the transport's tally (NewMetrics): frames and bytes by
	// direction and message kind, per-peer frame counts and queue depth,
	// dials, dropped and rejected frames. Sent, Received and Rejected read
	// it. Nil counts into private cells nobody exports.
	Metrics *obs.WireMetrics
}

// Transport moves protocol messages over TCP.
type Transport struct {
	cfg   Config
	ln    net.Listener
	links map[types.ProcID]*link // one per peer, fixed by Listen
	stall time.Duration
	// minWait is the first backoff after a failed dial (minBackoff).
	minWait time.Duration
	dialF   func(ctx context.Context, addr string) (net.Conn, error)

	// linked[k] closes when the k-th link first connects (linked[0] at
	// Listen); linkedN counts the links that have.
	linked  []chan struct{}
	linkedN atomic.Int32

	ctx    context.Context // cancelled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Listen starts the transport: it binds Addrs[Self], serves inbound
// connections and starts one link per other process, until Close.
func Listen(cfg Config) (*Transport, error) {
	if cfg.Recv == nil {
		return nil, errors.New("netx: nil Recv")
	}
	addr, ok := cfg.Addrs[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("netx: no listen address for %v", cfg.Self)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		peers := make([]types.ProcID, 0, len(cfg.Addrs))
		for id := range cfg.Addrs {
			if id != cfg.Self {
				peers = append(peers, id)
			}
		}
		cfg.Metrics = NewMetrics(nil, peers)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netx: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		links:   make(map[types.ProcID]*link, len(cfg.Addrs)),
		stall:   stallTimeout,
		minWait: minBackoff,
		dialF:   dialTCP,
		linked:  make([]chan struct{}, len(cfg.Addrs)),
		ctx:     ctx,
		cancel:  cancel,
	}
	for k := range t.linked {
		t.linked[k] = make(chan struct{})
	}
	close(t.linked[0])
	for id, addr := range cfg.Addrs {
		if id == cfg.Self {
			continue
		}
		l := &link{t: t, peer: id, addr: addr, wake: make(chan struct{}, 1), hello: make(chan struct{}, 1), queued: cfg.Metrics.QueueBytes[int(id)]}
		t.links[id] = l
		t.wg.Add(1)
		go l.run()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Linked is closed once k peer links have connected for the first time;
// Linked(0) is closed at once. It stays open while fewer than k peers
// have ever listened, so for a k above the number of peers it never
// closes.
func (t *Transport) Linked(k int) <-chan struct{} {
	if k >= len(t.linked) {
		return make(chan struct{})
	}
	return t.linked[max(k, 0)]
}

// The states LinkStatus reports.
const (
	// LinkUp: the link holds a connection the peer has not closed.
	LinkUp = "up"
	// LinkDown: no connection; the next frame dials.
	LinkDown = "down"
	// LinkBackoff: the last dial failed, and frames are refused until the
	// backoff ends.
	LinkBackoff = "backoff"
)

// LinkStatus is one link's state as Links reports it.
type LinkStatus struct {
	State      string // LinkUp, LinkDown or LinkBackoff
	QueueBytes int    // accepted by Send and not yet written
}

// Links reports every peer link's state, each read under its own mutex.
func (t *Transport) Links() map[types.ProcID]LinkStatus {
	links := make(map[types.ProcID]LinkStatus, len(t.links))
	for id, l := range t.links {
		l.mu.Lock()
		st := LinkStatus{State: LinkDown, QueueBytes: l.pending}
		if l.conn != nil && !l.gone {
			st.State = LinkUp
		} else if l.down {
			st.State = LinkBackoff
		}
		l.mu.Unlock()
		links[id] = st
	}
	return links
}

// NewMetrics builds the wire bundle of a transport whose peers are
// peers, registered in r when r is non-nil: one series per wire kind
// through proto.MsgDecide, and one per peer.
func NewMetrics(r *obs.Registry, peers []types.ProcID) *obs.WireMetrics {
	ids := make([]int, len(peers))
	for i, p := range peers {
		ids[i] = int(p)
	}
	return obs.NewWireMetrics(r, "", int(proto.MsgDecide), func(k int) string { return proto.MsgKind(k).String() }, ids)
}

// Sent reports frames written to peers: the sum of the per-peer series.
func (t *Transport) Sent() uint64 { return sum(t.cfg.Metrics.PeerSent) }

// Received reports accepted inbound frames: the sum of the per-peer
// series.
func (t *Transport) Received() uint64 { return sum(t.cfg.Metrics.PeerRecv) }

// Rejected reports malformed inbound frames dropped.
func (t *Transport) Rejected() uint64 { return t.cfg.Metrics.Rejected.Value() }

func sum(cs map[int]*obs.Counter) uint64 {
	var n uint64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.ctx.Err() == nil {
				t.cfg.Logf("netx %v: accept: %v", t.cfg.Self, err)
			}
			return
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn reads the identification handshake then pumps frames upward.
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()

	// Close the connection when the transport shuts down so the blocking
	// reads below unblock.
	defer context.AfterFunc(t.ctx, func() { conn.Close() })()

	r := bufio.NewReaderSize(conn, readBuffer)
	peer, err := readHello(r)
	if err != nil {
		t.cfg.Logf("netx %v: bad handshake from %s: %v", t.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	if _, known := t.cfg.Addrs[peer]; !known || peer == t.cfg.Self {
		t.cfg.Logf("netx %v: unknown peer id %v from %s", t.cfg.Self, peer, conn.RemoteAddr())
		return
	}
	t.links[peer].heard()
	for {
		body, held, err := readFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && t.ctx.Err() == nil {
				t.cfg.Logf("netx %v: read from %v: %v", t.cfg.Self, peer, err)
			}
			return
		}
		m, err := wire.Decode(body)
		r.Discard(held)
		if err != nil {
			// Byzantine garbage: count and drop, never crash.
			t.cfg.Metrics.Rejected.Inc()
			continue
		}
		t.cfg.Metrics.Recv(int(m.Kind), int(peer), len(body))
		t.cfg.Recv(peer, m)
	}
}

// Send encodes m and queues it on the link to peer `to`; it never dials,
// writes or blocks. A nil error means the frame is queued: the link
// writes its frames in order and drops them only if the connection fails
// (see link). A link that is backing off after a failed dial, or that
// holds maxQueueBytes unwritten, refuses the frame with an error and
// counts the drop.
func (t *Transport) Send(to types.ProcID, m proto.Message) error {
	return t.Multicast([]types.ProcID{to}, m)
}

// Multicast is Send to every peer in to with one encoding: each link
// queues the same body, which its writer only reads. A link that refuses
// the frame does not stop the others; their errors are joined.
func (t *Transport) Multicast(to []types.ProcID, m proto.Message) error {
	if t.ctx.Err() != nil {
		return errors.New("netx: transport closed")
	}
	body, err := wire.Encode(m)
	if err != nil {
		return fmt.Errorf("netx: encode: %w", err)
	}
	var errs []error
	for _, p := range to {
		if l, ok := t.links[p]; !ok {
			errs = append(errs, fmt.Errorf("netx: no link to %v", p))
		} else if err := l.enqueue(frame{kind: m.Kind, body: body}); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close shuts the transport down and waits for its goroutines. Frames
// already queued on a connected link get closeGrace to go out; a writer
// blocked on a peer that is not reading is cut off at the same moment.
func (t *Transport) Close() error {
	t.cancel()
	err := t.ln.Close()
	for _, l := range t.links {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.SetWriteDeadline(time.Now().Add(closeGrace))
		}
		l.mu.Unlock()
	}
	t.wg.Wait()
	return err
}

// frame is one encoded message waiting on a link.
type frame struct {
	kind proto.MsgKind
	body []byte
}

// link is the outbound channel to one peer. Send appends to its queue;
// its writer goroutine owns everything that can block: the boot probe,
// the dial with backoff, the handshake, and writev of the whole queue
// under a write deadline. The peer's hello on an inbound connection
// shows it listens, so it ends the writer's backoff wait at once: the
// process that boots first links to the others as they come up, not a
// backoff later, and the links back to a returning peer connect as soon
// as it dials in. A watcher goroutine per connection reads it, which the
// peer never writes, to learn when the peer has closed it; the writer
// then dials afresh instead of writing into the dead socket. A
// connection that fails — dial refused, write error, or no write progress
// for stallTimeout (the peer is not reading) — loses the frames on it and
// queued behind it, counted as dropped; nothing is resent, recovery is
// the protocol's (sm.Transfer). A healthy link never drops.
type link struct {
	t      *Transport
	peer   types.ProcID
	addr   string
	wake   chan struct{} // capacity 1: one pending signal covers any number of frames
	hello  chan struct{} // capacity 1: the peer said hello since the last dial
	queued *obs.Gauge

	mu      sync.Mutex
	queue   []frame  // accepted, not yet taken by the writer
	pending int      // bytes queued or being written
	down    bool     // the last dial failed; refuse frames until the backoff ends
	conn    net.Conn // written only by the writer (under mu), read by Close
	gone    bool     // the peer closed conn (set by its watcher)

	// connected is set by the writer at the link's first connection.
	connected bool

	// Writer-owned scratch, reused across batches.
	spare []frame
	hdrs  []byte
	iov   net.Buffers
}

// heard signals the writer that the peer dialed this process.
func (l *link) heard() {
	select {
	case l.hello <- struct{}{}:
	default:
	}
}

// redial dials the peer, first forgetting a hello heard before it: the
// dial answers that one, and only a hello heard after it may cut the
// backoff that a failure starts.
func (l *link) redial() error {
	select {
	case <-l.hello:
	default:
	}
	return l.dial()
}

func (l *link) enqueue(f frame) error {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		l.dropped(1, false)
		return fmt.Errorf("netx: link to %v is down", l.peer)
	}
	size := 4 + len(f.body)
	if l.pending+size > maxQueueBytes {
		l.mu.Unlock()
		l.dropped(1, true)
		return fmt.Errorf("netx: link to %v is full", l.peer)
	}
	l.queue = append(l.queue, f)
	l.pending += size
	l.queued.Set(int64(l.pending))
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// run is the writer: each wake-up takes the whole queue and writes it in
// one writev, dialing first if there is no connection.
func (l *link) run() {
	defer l.t.wg.Done()
	defer l.closeConn()
	l.probe()
	backoff := l.t.minWait
	for {
		select {
		case <-l.wake:
		case <-l.t.ctx.Done():
			// Closing: what Send accepted goes out on a live connection
			// within closeGrace; nothing is dialed.
			if batch, _ := l.take(); len(batch) > 0 {
				if l.conn == nil || l.write(batch) != nil {
					l.fail(len(batch), false, false)
				}
			}
			return
		}
		batch, gone := l.take()
		if len(batch) == 0 {
			continue
		}
		if gone {
			l.closeConn()
		}
		if l.conn == nil {
			if err := l.redial(); err != nil {
				if backoff == l.t.minWait && l.t.ctx.Err() == nil {
					l.t.cfg.Logf("netx %v: link to %v down: %v", l.t.cfg.Self, l.peer, err)
				}
				l.fail(len(batch), false, true)
				select {
				case <-time.After(backoff):
				case <-l.hello:
				case <-l.t.ctx.Done():
					return
				}
				backoff = min(2*backoff, maxBackoff)
				l.mu.Lock()
				l.down = false
				l.mu.Unlock()
				continue
			}
			backoff = l.t.minWait
		}
		if err := l.write(batch); err != nil {
			stalled := errors.Is(err, os.ErrDeadlineExceeded)
			if l.t.ctx.Err() == nil {
				l.t.cfg.Logf("netx %v: write to %v: %v", l.t.cfg.Self, l.peer, err)
			}
			l.closeConn()
			l.fail(len(batch), stalled, false)
		}
	}
}

// probe dials the peer at boot, before any frame asks for it, so that
// the link counts towards Linked once the peer listens. A failed probe
// drops nothing and refuses nothing; the next one waits out the same
// doubling backoff a failed dial does, or less if the peer says hello.
// Probing ends at the first connection, at Close, or at the first frame
// queued: from then on the link dials on demand, with a fresh backoff.
func (l *link) probe() {
	backoff := l.t.minWait
	for l.redial() != nil {
		select {
		case <-time.After(backoff):
		case <-l.hello:
		case <-l.wake:
			// Hand the frame's signal back to run.
			select {
			case l.wake <- struct{}{}:
			default:
			}
			return
		case <-l.t.ctx.Done():
			return
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

// take hands the writer everything queued, swapping in the spare slice,
// and reports whether the peer has closed the connection.
func (l *link) take() (batch []frame, gone bool) {
	l.mu.Lock()
	batch, gone = l.queue, l.gone
	l.queue = l.spare[:0]
	l.mu.Unlock()
	l.spare = nil
	return batch, gone
}

// dial connects, sends the handshake — a 4-byte frame holding Self — and
// starts the connection's watcher. The link's first connection counts it
// towards Linked.
func (l *link) dial() error {
	c, err := l.t.dialF(l.t.ctx, l.addr)
	if err != nil {
		return err
	}
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[0:], 4)
	binary.LittleEndian.PutUint32(hello[4:], uint32(l.t.cfg.Self))
	c.SetWriteDeadline(time.Now().Add(l.t.stall))
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	l.mu.Lock()
	l.conn, l.gone = c, false
	l.mu.Unlock()
	l.t.wg.Add(1)
	go l.watch(c)
	l.t.cfg.Metrics.Connects.Inc()
	if !l.connected {
		l.connected = true
		close(l.t.linked[l.t.linkedN.Add(1)])
	}
	return nil
}

// watch reads c until it fails, then marks it gone if it is still the
// link's connection. The peer writes nothing on it, so the read returns
// only when the peer closes it, the connection breaks, or the writer
// closes it; whatever bytes a misbehaving peer sends are discarded. It
// never clears conn, which only the writer does.
func (l *link) watch(c net.Conn) {
	defer l.t.wg.Done()
	var buf [64]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			break
		}
	}
	l.mu.Lock()
	if l.conn == c {
		l.gone = true
	}
	l.mu.Unlock()
}

// write sends batch as one writev — every frame's length prefix and body —
// and counts it. A write cut off by the deadline after making progress is
// resumed under a fresh one (the peer is reading, slowly); one that made
// none means the peer stopped reading.
func (l *link) write(batch []frame) error {
	if need := 4 * len(batch); cap(l.hdrs) < need {
		l.hdrs = make([]byte, need)
	}
	bytes := 0
	iov := l.iov[:0]
	for i, f := range batch {
		hdr := l.hdrs[4*i : 4*i+4]
		binary.LittleEndian.PutUint32(hdr, uint32(len(f.body)))
		iov = append(iov, hdr, f.body)
		bytes += 4 + len(f.body)
	}
	bufs := iov
	var err error
	for {
		l.armDeadline()
		var n int64
		n, err = bufs.WriteTo(l.conn)
		if err == nil || n == 0 || !errors.Is(err, os.ErrDeadlineExceeded) || l.t.ctx.Err() != nil {
			break
		}
	}
	clear(iov)
	l.iov = iov[:0]
	if err != nil {
		return err
	}
	for _, f := range batch {
		l.t.cfg.Metrics.Sent(int(f.kind), int(l.peer), len(f.body))
	}
	clear(batch)
	l.spare = batch[:0]
	l.mu.Lock()
	l.pending -= bytes
	l.queued.Set(int64(l.pending))
	l.mu.Unlock()
	return nil
}

// armDeadline gives the next write stallTimeout, or closeGrace once the
// transport is closing. It holds mu, as Close does when it shortens the
// deadline, so a write never starts with a deadline Close has not seen.
func (l *link) armDeadline() {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.t.stall
	if l.t.ctx.Err() != nil {
		d = closeGrace
	}
	l.conn.SetWriteDeadline(time.Now().Add(d))
}

// fail drops the n frames the writer holds and everything queued behind
// them, counting them as stalled or down; down also makes Send refuse
// frames until the writer's backoff ends.
func (l *link) fail(n int, stalled, down bool) {
	l.mu.Lock()
	n += len(l.queue)
	clear(l.queue)
	l.queue = l.queue[:0]
	l.pending = 0
	l.down = down
	l.queued.Set(0)
	l.mu.Unlock()
	l.dropped(n, stalled)
}

func (l *link) dropped(n int, stalled bool) {
	if stalled {
		l.t.cfg.Metrics.DroppedStalled.Add(uint64(n))
	} else {
		l.t.cfg.Metrics.DroppedDown.Add(uint64(n))
	}
}

func (l *link) closeConn() {
	l.mu.Lock()
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// readHello reads the identification frame: a length of exactly 4, then
// the dialer's process ID. The length is checked before anything is
// allocated, so an unidentified dialer cannot make the node hold a
// maxFrame buffer.
func readHello(r io.Reader) (types.ProcID, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return 0, err
	}
	if n := binary.LittleEndian.Uint32(b[:4]); n != 4 {
		return 0, fmt.Errorf("netx: hello frame of %d bytes", n)
	}
	if _, err := io.ReadFull(r, b[4:]); err != nil {
		return 0, err
	}
	return types.ProcID(binary.LittleEndian.Uint32(b[4:])), nil
}

// readFrame reads one frame's body, enforcing the size bound. A body that
// fits r's buffer is returned in place, valid until the next read: the
// caller Discards its held bytes once decoded. A larger one is copied out.
func readFrame(r *bufio.Reader) (body []byte, held int, err error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, 0, fmt.Errorf("netx: frame of %d bytes exceeds limit", n)
	}
	r.Discard(4)
	if int(n) <= r.Size() {
		body, err = r.Peek(int(n))
		return body, len(body), err
	}
	body = make([]byte, n)
	_, err = io.ReadFull(r, body)
	return body, 0, err
}

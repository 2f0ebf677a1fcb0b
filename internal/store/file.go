package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/log"
	"repro/internal/types"
)

// WAL record framing: every record is
//
//	u8  type ‖ u32 payload length L ‖ L payload bytes ‖ u32 CRC-32
//
// (little-endian, CRC over type+length+payload — IEEE polynomial). The
// CRC is the torn-tail detector: a crash mid-write leaves a final record
// whose frame is short or whose CRC mismatches, and recovery truncates
// the file at the last intact frame instead of failing. Anything BEFORE
// a bad frame is trusted — the file is append-only and fsync'd at
// boundaries, so a mid-file corruption is a disk fault, not a crash
// artifact, and recovery refuses it loudly rather than dropping silently.
const (
	recEntry    = 1 // u64 index ‖ u64 instance ‖ command bytes
	recBoundary = 2 // u64 applied-instance boundary
	recTruncate = 3 // u64 index: entries with Index < it are retired
)

// walHeaderLen is the fixed frame overhead: type+length before the
// payload, CRC after it.
const walHeaderLen = 1 + 4

// walCRCLen is the trailing checksum length.
const walCRCLen = 4

// maxWALRecord bounds one record's payload (16 MiB): recovery must not
// let a corrupt length field force an unbounded allocation.
const maxWALRecord = 16 << 20

// walName is the append-only log file inside a data directory.
const walName = "wal.log"

// snapPrefix names snapshot files: snapPrefix-<index>-<instance>.
const snapPrefix = "snap"

// rewriteSlack is how many retired entries may accumulate in the WAL
// before TruncatePrefix rewrites the file instead of only appending a
// truncate marker. Markers are cheap (one record per snapshot); the
// rewrite is what actually reclaims disk, so it runs once the dead
// prefix outweighs the live suffix by this many entries.
const rewriteSlack = 4096

// File is the append-only-file Persister: a CRC-framed WAL plus
// atomically-replaced snapshot files in one data directory. Layout:
//
//	<dir>/wal.log            append-only record log (see record framing)
//	<dir>/snap-<idx>-<inst>  snapshot payload, CRC-framed like a WAL
//	                         record, written to a temp file and renamed
//
// Writes are buffered by the OS; MarkApplied, StampSnapshot and Sync
// fsync. Recovery (Recover) tolerates a torn final WAL record and a
// torn snapshot file (it falls back to the newest intact one).
type File struct {
	mu    sync.Mutex
	dir   string
	wal   *os.File
	live  int  // entries in the WAL at or past the truncate floor
	dead  int  // entries below the truncate floor still physically present
	marks int  // boundary records since the last rewrite
	dirty bool // entry appends not yet sealed by an fsync
	// cache of the recovered/written state, so rewrites need no re-scan
	entries  []log.Entry
	boundary types.Instance
	snapIdx  int
	snapInst types.Instance
	hasSnap  bool
	closed   bool
}

var _ Persister = (*File)(nil)

// OpenFile opens (creating if needed) the file-backed store rooted at
// dir. Call Recover before writing: it repairs a torn tail and loads
// the caches the write paths maintain.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &File{dir: dir, wal: w}, nil
}

// appendRecord frames and writes one record at the WAL's current end.
func appendRecord(w *os.File, typ byte, payload []byte) error {
	buf := make([]byte, walHeaderLen+len(payload)+walCRCLen)
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(payload)))
	copy(buf[walHeaderLen:], payload)
	sum := crc32.ChecksumIEEE(buf[:walHeaderLen+len(payload)])
	binary.LittleEndian.PutUint32(buf[walHeaderLen+len(payload):], sum)
	_, err := w.Write(buf)
	return err
}

// encodeEntry flattens an entry into a record payload.
func encodeEntry(e log.Entry) []byte {
	p := make([]byte, 16+len(e.Cmd))
	binary.LittleEndian.PutUint64(p, uint64(e.Index))
	binary.LittleEndian.PutUint64(p[8:], uint64(e.Instance))
	copy(p[16:], e.Cmd)
	return p
}

// decodeEntry is encodeEntry's inverse; the bytes passed CRC so a
// failure here means a writer bug, not disk corruption.
func decodeEntry(p []byte) (log.Entry, error) {
	if len(p) < 16 {
		return log.Entry{}, fmt.Errorf("store: entry record of %d bytes is too short", len(p))
	}
	idx := binary.LittleEndian.Uint64(p)
	inst := binary.LittleEndian.Uint64(p[8:])
	if idx > 1<<62 || inst > 1<<62 {
		return log.Entry{}, fmt.Errorf("store: entry position out of range")
	}
	return log.Entry{
		Index:    int(idx),
		Instance: types.Instance(inst),
		Cmd:      types.Value(p[16:]),
	}, nil
}

// AppendEntry implements Persister. The write lands in the OS page
// cache; it becomes durable at the next MarkApplied/StampSnapshot/Sync,
// which is exactly the write-ahead cadence sm.Applier drives.
func (f *File) AppendEntry(e log.Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("store: append on closed store")
	}
	if err := appendRecord(f.wal, recEntry, encodeEntry(e)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f.entries = append(f.entries, e)
	f.live++
	f.dirty = true
	return nil
}

// MarkApplied implements Persister: boundary record + fsync. This is
// the durability point — after it returns, every entry appended before
// it survives a crash. Marks for boundaries that seal no new entries
// skip the fsync (losing such a mark in a crash only makes the restart
// resume a few empty instances earlier), which keeps an idle ⊥-churning
// replica from paying one disk flush per empty instance; a long idle
// stretch of marks is folded away by a WAL rewrite once it outgrows
// rewriteSlack records.
func (f *File) MarkApplied(boundary types.Instance) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("store: mark on closed store")
	}
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(boundary))
	if err := appendRecord(f.wal, recBoundary, p[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if f.dirty {
		if err := f.wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		f.dirty = false
	}
	if boundary > f.boundary {
		f.boundary = boundary
	}
	if f.marks++; f.marks >= rewriteSlack {
		return f.rewriteLocked()
	}
	return nil
}

// StampSnapshot implements Persister: the payload goes to a temp file,
// is fsync'd, renamed into place, and the directory is fsync'd so the
// name survives; then older snapshot files are deleted. The payload
// file reuses the WAL record framing (type recEntry is irrelevant here;
// the CRC is what recovery checks).
func (f *File) StampSnapshot(index int, instance types.Instance, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("store: stamp on closed store")
	}
	name := fmt.Sprintf("%s-%020d-%020d", snapPrefix, index, uint64(instance))
	tmp, err := os.CreateTemp(f.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := crc32.ChecksumIEEE(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	if _, err = tmp.Write(payload); err == nil {
		_, err = tmp.Write(tail[:])
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(f.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	// The new snapshot is durable under its final name; older ones are
	// now garbage (best-effort removal — a leftover is re-ignored by
	// Recover, which always picks the newest intact file).
	if names, err := filepath.Glob(filepath.Join(f.dir, snapPrefix+"-*")); err == nil {
		keep := filepath.Join(f.dir, name)
		for _, n := range names {
			if n != keep && !strings.Contains(filepath.Base(n), ".tmp-") {
				os.Remove(n)
			}
		}
	}
	f.snapIdx, f.snapInst, f.hasSnap = index, instance, true
	if instance > f.boundary {
		f.boundary = instance
	}
	return nil
}

// TruncatePrefix implements Persister. Normally it only appends a cheap
// truncate marker; once the dead prefix outgrows rewriteSlack entries
// the WAL is rewritten (temp file + rename, like snapshots) to reclaim
// the disk.
func (f *File) TruncatePrefix(index int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("store: truncate on closed store")
	}
	trim := 0
	for trim < len(f.entries) && f.entries[trim].Index < index {
		trim++
	}
	if trim > 0 {
		rest := make([]log.Entry, len(f.entries)-trim)
		copy(rest, f.entries[trim:])
		f.entries = rest
		f.live -= trim
		f.dead += trim
	}
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(index))
	if err := appendRecord(f.wal, recTruncate, p[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if f.dead >= rewriteSlack {
		return f.rewriteLocked()
	}
	return nil
}

// rewriteLocked replaces the WAL with a compact one holding only the
// live suffix and the current boundary. Caller holds f.mu.
func (f *File) rewriteLocked() error {
	tmp, err := os.CreateTemp(f.dir, walName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	write := func() error {
		for _, e := range f.entries {
			if err := appendRecord(tmp, recEntry, encodeEntry(e)); err != nil {
				return err
			}
		}
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], uint64(f.boundary))
		if err := appendRecord(tmp, recBoundary, p[:]); err != nil {
			return err
		}
		return tmp.Sync()
	}
	err = write()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(f.dir, walName)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	old := f.wal
	nw, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	old.Close()
	f.wal = nw
	f.dead = 0
	f.marks = 0
	f.dirty = false // the rewrite was fsync'd before the rename
	return nil
}

// Recover implements Persister: scan the WAL (repairing a torn tail),
// pick the newest intact snapshot file, and return the composition.
func (f *File) Recover() (Recovered, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Recovered{}, fmt.Errorf("store: recover on closed store")
	}
	raw, err := os.ReadFile(filepath.Join(f.dir, walName))
	if err != nil {
		return Recovered{}, fmt.Errorf("store: %w", err)
	}
	entries, boundary, good, err := scanWAL(raw)
	if err != nil {
		return Recovered{}, err
	}
	if good < len(raw) {
		// Torn tail: drop the partial record so future appends start at
		// a clean frame. The entries inside the torn record were never
		// covered by a boundary fsync, so dropping loses nothing durable.
		if err := f.wal.Truncate(int64(good)); err != nil {
			return Recovered{}, fmt.Errorf("store: %w", err)
		}
		if err := f.wal.Sync(); err != nil {
			return Recovered{}, fmt.Errorf("store: %w", err)
		}
	}
	rec := Recovered{Entries: entries, Boundary: boundary}
	idx, inst, payload, ok, err := f.newestSnapshot()
	if err != nil {
		return Recovered{}, err
	}
	if ok {
		rec.SnapPayload, rec.SnapIndex, rec.SnapInstance = payload, idx, inst
		if inst > rec.Boundary {
			rec.Boundary = inst
		}
	}
	f.entries = append([]log.Entry(nil), entries...)
	f.boundary = rec.Boundary
	f.live, f.dead = len(entries), 0
	if ok {
		f.snapIdx, f.snapInst, f.hasSnap = idx, inst, true
	}
	return rec, nil
}

// scanWAL walks the record stream, returning the live entries, the
// highest boundary, and the byte offset of the first bad frame (==
// len(raw) when the whole file is intact). Only a TAIL fault is
// tolerated: a bad frame with further intact records behind it would
// mean mid-file corruption, but the scanner cannot resynchronize past a
// bad length field anyway, so every bad frame is by construction the
// scan's end — the caller decides whether truncating there is safe.
func scanWAL(raw []byte) (entries []log.Entry, boundary types.Instance, good int, err error) {
	off := 0
	for {
		if off == len(raw) {
			return entries, boundary, off, nil
		}
		if len(raw)-off < walHeaderLen+walCRCLen {
			return entries, boundary, off, nil // torn header
		}
		typ := raw[off]
		plen := binary.LittleEndian.Uint32(raw[off+1:])
		if plen > maxWALRecord || walHeaderLen+int(plen)+walCRCLen > len(raw)-off {
			return entries, boundary, off, nil // torn or absurd length
		}
		end := off + walHeaderLen + int(plen)
		sum := binary.LittleEndian.Uint32(raw[end:])
		if crc32.ChecksumIEEE(raw[off:end]) != sum {
			return entries, boundary, off, nil // torn payload/CRC
		}
		payload := raw[off+walHeaderLen : end]
		switch typ {
		case recEntry:
			e, derr := decodeEntry(payload)
			if derr != nil {
				return nil, 0, 0, derr
			}
			// Copy out of the file buffer so the big read is collectable.
			e.Cmd = types.Value(append([]byte(nil), e.Cmd...))
			entries = append(entries, e)
		case recBoundary:
			if len(payload) != 8 {
				return nil, 0, 0, fmt.Errorf("store: boundary record of %d bytes", len(payload))
			}
			if b := types.Instance(binary.LittleEndian.Uint64(payload)); b > boundary {
				boundary = b
			}
		case recTruncate:
			if len(payload) != 8 {
				return nil, 0, 0, fmt.Errorf("store: truncate record of %d bytes", len(payload))
			}
			floor := int(binary.LittleEndian.Uint64(payload))
			trim := 0
			for trim < len(entries) && entries[trim].Index < floor {
				trim++
			}
			entries = entries[trim:]
		default:
			return nil, 0, 0, fmt.Errorf("store: unknown WAL record type %d", typ)
		}
		off = end + walCRCLen
	}
}

// newestSnapshot loads the intact snapshot file with the highest
// (index, instance), skipping torn or corrupt ones.
func (f *File) newestSnapshot() (index int, instance types.Instance, payload []byte, ok bool, err error) {
	names, err := filepath.Glob(filepath.Join(f.dir, snapPrefix+"-*"))
	if err != nil {
		return 0, 0, nil, false, fmt.Errorf("store: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded: lexicographic == numeric
	for _, n := range names {
		base := filepath.Base(n)
		if strings.Contains(base, ".tmp-") {
			continue
		}
		var idx, inst uint64
		if _, serr := fmt.Sscanf(base, snapPrefix+"-%020d-%020d", &idx, &inst); serr != nil {
			continue
		}
		raw, rerr := os.ReadFile(n)
		if rerr != nil || len(raw) < walCRCLen {
			continue
		}
		body := raw[:len(raw)-walCRCLen]
		sum := binary.LittleEndian.Uint32(raw[len(raw)-walCRCLen:])
		if crc32.ChecksumIEEE(body) != sum {
			continue // torn write that still got renamed? fall back
		}
		return int(idx), types.Instance(inst), body, true, nil
	}
	return 0, 0, nil, false, nil
}

// Sync implements Persister.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("store: sync on closed store")
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f.dirty = false
	return nil
}

// Close implements Persister.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if err := f.wal.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed name is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Some filesystems refuse directory fsync; the rename itself is
	// still ordered after the file's own fsync, so degrade silently.
	d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

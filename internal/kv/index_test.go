package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
)

// mapModel is the store as two plain maps and its counters, driven by
// the same commands: the reference the store's sorted tables must encode
// like, whatever their layout.
type mapModel struct {
	data                        map[string]string
	seqs                        map[uint64]uint64
	resps                       map[uint64]string
	applies, dups, stales, bads uint64
}

// apply is Store.Apply's session filter and operations over the maps.
func (m *mapModel) apply(c Command) {
	if c.Client != 0 {
		seq, ok := m.seqs[c.Client]
		if ok && c.Seq == seq {
			m.dups++
			return
		}
		if ok && c.Seq < seq {
			m.stales++
			return
		}
	}
	m.applies++
	r := Response{Status: StatusOK}
	old, ok := m.data[c.Key]
	switch {
	case c.Op == OpPut:
		m.data[c.Key] = c.Val
	case !ok:
		r.Status = StatusNotFound
	case c.Op == OpGet:
		r.Val = old
	default:
		delete(m.data, c.Key)
	}
	if c.Client != 0 {
		m.seqs[c.Client], m.resps[c.Client] = c.Seq, string(r.Encode())
	}
}

// encoding sorts the maps' keys and clients and encodes them.
func (m *mapModel) encoding() []byte {
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	clients := make([]uint64, 0, len(m.seqs))
	for c := range m.seqs {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf := []byte{snapMagic}
	for _, n := range []uint64{m.applies, m.dups, m.stales, m.bads, uint64(len(keys))} {
		buf = binary.LittleEndian.AppendUint64(buf, n)
	}
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, m.data[k])
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(clients)))
	for _, c := range clients {
		buf = binary.LittleEndian.AppendUint64(buf, c)
		buf = binary.LittleEndian.AppendUint64(buf, m.seqs[c])
		buf = appendString(buf, m.resps[c])
	}
	return buf
}

// TestSnapshotIndexesMatchSortedEncoding: through random puts, deletes,
// reads, retries and restores, AppendSnapshot encodes exactly what a map
// model of the same commands sorts and encodes, into a buffer of exactly
// its length, and appends after whatever dst already holds; Get and the
// session lookups read what the model holds.
func TestSnapshotIndexesMatchSortedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	m := &mapModel{data: map[string]string{}, seqs: map[uint64]uint64{}, resps: map[uint64]string{}}
	seqs := map[uint64]uint64{}
	for step := 0; step < 3000; step++ {
		client := uint64(rng.Intn(12))
		seq := seqs[client] + 1
		if rng.Intn(10) == 0 && seq > 1 {
			seq -= uint64(rng.Intn(2) + 1) // a retry or a stale request
		} else {
			seqs[client] = seq
		}
		c := Command{Client: client, Seq: seq, Key: fmt.Sprintf("k%03d", rng.Intn(60))}
		switch rng.Intn(4) {
		case 0:
			c.Op = OpDel
		case 1:
			c.Op = OpGet
		default:
			c.Op, c.Val = OpPut, fmt.Sprintf("%0*d", rng.Intn(20), step)
		}
		s.Apply(c.Encode())
		m.apply(c)
		if step%97 == 0 {
			r := NewStore()
			if err := r.Restore(s.Snapshot()); err != nil {
				t.Fatal(err)
			}
			s = r
		}
		want, has := m.data[c.Key]
		if v, ok := s.Get(c.Key); v != want || ok != has {
			t.Fatalf("step %d: Get(%q) = %q, %v; the model holds %q, %v", step, c.Key, v, ok, want, has)
		}
		if seq, resp, _ := s.CachedResponse(client); seq != m.seqs[client] || string(resp) != m.resps[client] || s.SessionSeq(client) != seq {
			t.Fatalf("step %d: client %d's session is %d %q; the model holds %d %q", step, client, seq, resp, m.seqs[client], m.resps[client])
		}
		if step%13 != 0 {
			continue
		}
		enc := m.encoding()
		if got := s.Snapshot(); !bytes.Equal(got, enc) || len(got) != cap(got) {
			t.Fatalf("step %d: snapshot of %d bytes (cap %d) differs from the sorted encoding of %d bytes",
				step, len(got), cap(got), len(enc))
		}
		if got := s.AppendSnapshot([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), enc...)) {
			t.Fatalf("step %d: AppendSnapshot lost or moved its prefix", step)
		}
	}
}

// TestRestoreRejectsNonCanonical: a snapshot whose keys or clients are
// out of order or repeated decodes to no state the store could encode,
// so Restore refuses it before touching live state.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	s := NewStore()
	s.Apply(Command{Op: OpPut, Client: 1, Seq: 1, Key: "k", Val: "v"}.Encode())
	before := s.Snapshot()
	pair := func(k, v string) []byte { return appendString(appendString(nil, k), v) }
	sess := func(c uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, c)
		b = binary.LittleEndian.AppendUint64(b, 1)
		return appendString(b, "r")
	}
	encode := func(pairs [][]byte, sessions [][]byte) []byte {
		b := []byte{snapMagic}
		for _, n := range []uint64{0, 0, 0, 0, uint64(len(pairs))} {
			b = binary.LittleEndian.AppendUint64(b, n)
		}
		b = append(b, bytes.Join(pairs, nil)...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(sessions)))
		return append(b, bytes.Join(sessions, nil)...)
	}
	if err := NewStore().Restore(encode([][]byte{pair("a", "1"), pair("b", "2")}, [][]byte{sess(1), sess(2)})); err != nil {
		t.Fatalf("canonical encoding refused: %v", err)
	}
	for name, b := range map[string][]byte{
		"keys out of order":    encode([][]byte{pair("b", "1"), pair("a", "2")}, nil),
		"repeated key":         encode([][]byte{pair("a", "1"), pair("a", "2")}, nil),
		"clients out of order": encode(nil, [][]byte{sess(2), sess(1)}),
		"repeated client":      encode(nil, [][]byte{sess(1), sess(1)}),
	} {
		if err := s.Restore(b); err == nil {
			t.Errorf("%s: restored", name)
		}
		if err := ValidateSnapshot(b); err == nil {
			t.Errorf("%s: validated", name)
		}
		if !bytes.Equal(s.Snapshot(), before) {
			t.Fatalf("%s: a refused Restore changed the store", name)
		}
	}
}

// TestRestoreRefreshesGauges: a store's key and session gauges follow a
// Restore (a peer install or a durable boot), not only the next apply.
func TestRestoreRefreshesGauges(t *testing.T) {
	src := NewStore()
	for i := 0; i < 5; i++ {
		src.Apply(Command{Op: OpPut, Client: uint64(i%3 + 1), Seq: uint64(i + 1), Key: fmt.Sprintf("k%d", i), Val: "v"}.Encode())
	}
	dst := NewStore()
	m := obs.NewKVMetrics(obs.NewRegistry(), "")
	dst.SetMetrics(m)
	dst.Apply(Command{Op: OpPut, Client: 9, Seq: 1, Key: "only", Val: "v"}.Encode())
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if m.Keys.Value() != int64(dst.Len()) || m.Sessions.Value() != int64(dst.Sessions()) {
		t.Fatalf("gauges keys=%d sessions=%d after restore, store holds %d and %d",
			m.Keys.Value(), m.Sessions.Value(), dst.Len(), dst.Sessions())
	}
	if dst.Len() != 5 || dst.Sessions() != 3 {
		t.Fatalf("restored %d keys and %d sessions, want 5 and 3", dst.Len(), dst.Sessions())
	}
}

// TestLookupsAtTheEdges: Get and the session lookups find nothing in an
// empty store, nor below the first or above the last key and client;
// deleting the first and last key and inserting new ones at both ends
// keeps every key where find looks for it.
func TestLookupsAtTheEdges(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"", "a", "m", "\xff"} {
		if v, ok := s.Get(k); ok || v != "" {
			t.Fatalf("empty store: Get(%q) = %q, %v", k, v, ok)
		}
	}
	for _, c := range []uint64{0, 1, ^uint64(0)} {
		if _, _, ok := s.CachedResponse(c); ok || s.SessionSeq(c) != 0 {
			t.Fatalf("empty store: client %d has a session", c)
		}
	}
	put := func(client uint64, key string) {
		s.Apply(Command{Op: OpPut, Client: client, Seq: s.SessionSeq(client) + 1, Key: key, Val: "v-" + key}.Encode())
	}
	put(5, "k")
	put(7, "m")
	for _, k := range []string{"", "a", "l", "n", "z"} {
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get(%q) found a key the store does not hold", k)
		}
	}
	for _, c := range []uint64{1, 4, 6, 8, ^uint64(0)} {
		if _, _, ok := s.CachedResponse(c); ok {
			t.Fatalf("client %d has a session it never opened", c)
		}
	}
	put(1, "a")    // below the first key and client
	put(9, "z")    // above the last
	put(3, "\x00") // below "a"
	s.Apply(Command{Op: OpDel, Client: 5, Seq: 2, Key: "\x00"}.Encode())
	s.Apply(Command{Op: OpDel, Client: 5, Seq: 3, Key: "z"}.Encode())
	for k, want := range map[string]bool{"\x00": false, "a": true, "k": true, "m": true, "z": false} {
		if v, ok := s.Get(k); ok != want || ok && v != "v-"+k {
			t.Fatalf("Get(%q) = %q, %v; want present %v", k, v, ok, want)
		}
	}
	for c, want := range map[uint64]uint64{1: 1, 3: 1, 5: 3, 7: 1, 9: 1} {
		if got := s.SessionSeq(c); got != want {
			t.Fatalf("client %d at seq %d, want %d", c, got, want)
		}
	}
}

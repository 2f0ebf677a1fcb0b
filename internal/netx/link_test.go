package netx

import (
	"context"
	"testing"

	"repro/internal/proto"
	"repro/internal/types"
)

// TestMulticastQueuesOneBody: a Multicast encodes once, and every link
// queues that same body. The links here have no writer, so what was
// queued stays to be looked at.
func TestMulticastQueuesOneBody(t *testing.T) {
	tr := &Transport{ctx: context.Background(), links: make(map[types.ProcID]*link)}
	peers := []types.ProcID{2, 3, 4}
	for _, p := range peers {
		tr.links[p] = &link{t: tr, peer: p, wake: make(chan struct{}, 1)}
	}
	m := proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Origin: 1, Val: "batch"}
	if err := tr.Multicast(peers, m); err != nil {
		t.Fatal(err)
	}
	var body *byte
	for _, p := range peers {
		q := tr.links[p].queue
		if len(q) != 1 || q[0].kind != m.Kind {
			t.Fatalf("link to %v queued %+v, want the one frame", p, q)
		}
		if body == nil {
			body = &q[0].body[0]
		} else if &q[0].body[0] != body {
			t.Fatalf("link to %v queued a body of its own", p)
		}
	}
}

package main

import (
	"reflect"
	"strings"
	"testing"
)

func genOps(seed int64, session, n int) []op {
	g := newOpGen(seed, session)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSeedFixesOpSequence(t *testing.T) {
	a, b := genOps(7, 1, 400), genOps(7, 1, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and session generated different op sequences")
	}
	if reflect.DeepEqual(a, genOps(8, 1, 400)) {
		t.Error("another seed generated the same op sequence")
	}
	if reflect.DeepEqual(a, genOps(7, 2, 400)) {
		t.Error("another session generated the same op sequence")
	}
}

func TestOpCycleShape(t *testing.T) {
	ops := genOps(3, 2, 400)
	keys := make(map[string]bool)
	for i := 0; i < len(ops); i += 4 {
		put1, get, put2, read := ops[i], ops[i+1], ops[i+2], ops[i+3]
		if put1.Kind != opPut || get.Kind != opOrderedGet || put2.Kind != opPut || read.Kind != opLocalGet {
			t.Fatalf("cycle %d is %v %v %v %v, want put, ordered get, put, local get", i/4, put1.Kind, get.Kind, put2.Kind, read.Kind)
		}
		if get.Key != put1.Key || read.Key != put2.Key {
			t.Fatalf("cycle %d reads %q and %q after putting %q and %q", i/4, get.Key, read.Key, put1.Key, put2.Key)
		}
		for _, p := range []op{put1, put2} {
			if len(p.Value) != 64 {
				t.Fatalf("put value of %d bytes, want 64", len(p.Value))
			}
			if !strings.HasPrefix(p.Key, "s2-k") {
				t.Fatalf("session 2 wrote key %q outside its own keys", p.Key)
			}
			keys[p.Key] = true
		}
	}
	if len(keys) > sessionKeys {
		t.Errorf("%d distinct keys, more than the session's %d", len(keys), sessionKeys)
	}
}

func TestSimCommandsDistinctAndSeeded(t *testing.T) {
	a := simCommandsFor(5)
	if !reflect.DeepEqual(a, simCommandsFor(5)) {
		t.Fatal("the same seed generated different simulator workloads")
	}
	seen := make(map[string]bool)
	for _, c := range a {
		seen[string(c.Encode())] = true
	}
	if len(seen) != simCommands {
		t.Errorf("%d distinct commands, want %d", len(seen), simCommands)
	}
}

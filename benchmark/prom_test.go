package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP minsync_log_committed_total commands committed
# TYPE minsync_log_committed_total counter
minsync_log_committed_total 10
minsync_log_applied_instances 40
minsync_stage_latency_ns_sum{stage="consensus"} 2000000
minsync_stage_latency_ns_count{stage="consensus"} 100
minsync_stage_latency_ns_bucket{stage="consensus",le="+Inf"} 100
minsync_wire_frames_total{dir="out",kind="RB_INIT"} 7
minsync_wire_frames_total{dir="in",kind="RB_VECTOR"} 5
`

const scrapeAfter = `minsync_log_committed_total 110
minsync_log_applied_instances 340

minsync_stage_latency_ns_sum{stage="consensus"} 2.2e+09
minsync_stage_latency_ns_count{stage="consensus"} 200
minsync_stage_latency_ns_bucket{stage="consensus",le="+Inf"} 200
minsync_wire_frames_total{dir="out",kind="RB_INIT"} 107 1790000000000
minsync_wire_frames_total{dir="in",kind="RB_VECTOR"} 55
minsync_wire_frames_total{dir="in",kind="odd name"} 3
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"minsync_log_committed_total", nil, 100},
		{"minsync_log_applied_instances", nil, 300},
		{"minsync_stage_latency_ns_count", []string{`stage="consensus"`}, 100},
		{"minsync_stage_latency_ns_sum", []string{`stage="consensus"`}, 2.198e9},
		{"minsync_stage_latency_ns_sum", []string{`stage="apply"`}, 0},
		// Every direction and kind; a series born mid-window counts from 0.
		{"minsync_wire_frames_total", nil, 153},
		{"minsync_wire_frames_total", []string{`dir="out"`}, 100},
		// A base name is matched whole, not as a prefix.
		{"minsync_stage_latency_ns", nil, 0},
	} {
		if got := d.sum(c.name, c.labels...); got != c.want {
			t.Errorf("delta %s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
}

func TestPromRejectsMalformed(t *testing.T) {
	for _, text := range []string{"novalue\n", "name{a=\"b\" 1\n", "name notanumber\n", "name{a=\"b\"}\n"} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: full series
// name (labels included, exactly as printed) to value.
type promSample map[string]float64

// parseProm reads the text exposition format: comment and blank lines
// are skipped, every other line is `series value` with an optional
// trailing timestamp. A malformed line is an error — a silent skip would
// turn into a silently-zero metric.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series name ends at the closing brace when there are
		// labels (label values may hold spaces), else at the first space.
		cut := strings.IndexByte(line, ' ')
		if brace := strings.IndexByte(line, '{'); brace >= 0 && (cut < 0 || brace < cut) {
			end := strings.LastIndexByte(line, '}')
			if end < brace {
				return nil, fmt.Errorf("prom: unbalanced labels in %q", line)
			}
			cut = end + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// sub returns after − before per series. A series absent from before
// counts from zero (it was registered mid-window).
func (after promSample) sub(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the given base name whose label body contains
// all of the given `key="value"` fragments. With no fragments it matches
// the bare name and every labelled variant.
func (s promSample) sum(base string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, body := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, body = k[:i], k[i:]
		}
		if name != base {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(body, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

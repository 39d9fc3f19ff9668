package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"
)

// span is one timed call into the program. Spans of one operation
// share Query; the operation's root span is named "op" and every other
// span names it as Parent. Set-up spans carry Query 0.
type span struct {
	Query   int64   `json:"query"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps a traced run's spans in memory until the run ends. A
// nil *tracer records nothing, which is how untraced runs call it.
type tracer struct {
	origin time.Time
	next   int64
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin returns the ID of a new operation.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

func (t *tracer) record(q int64, name, parent string, start time.Time, dur time.Duration) {
	t.spans = append(t.spans, span{
		Query:   q,
		Name:    name,
		Parent:  parent,
		StartUS: float64(start.Sub(t.origin)) / float64(time.Microsecond),
		DurUS:   float64(dur) / float64(time.Microsecond),
	})
}

// span records a call of operation q that started at start and has
// just returned.
func (t *tracer) span(q int64, name string, start time.Time) {
	if t == nil {
		return
	}
	t.record(q, name, "op", start, time.Since(start))
}

// end records operation q's root span.
func (t *tracer) end(q int64, start time.Time) {
	if t == nil {
		return
	}
	t.record(q, "op", "", start, time.Since(start))
}

// setup records one set-up's phases as consecutive spans.
func (t *tracer) setup(start time.Time, ph setupPhases, boot string) {
	if t == nil {
		return
	}
	t.record(0, "rdf.parse", "", start, ph.parse)
	t.record(0, "core.load", "", start.Add(ph.parse), ph.load)
	if ph.boot > 0 {
		t.record(0, boot, "", start.Add(ph.parse+ph.load), ph.boot)
	}
}

// durations returns the durations of every span with the given name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocSample is reused so that reading the counter allocates nothing
// inside the window it measures.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes the heap has allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuSnapshot is the process's CPU accounting at one instant.
type cpuSnapshot struct {
	process         time.Duration // user + system time of the process
	gc, total, idle float64       // runtime CPU classes, in CPU-seconds
}

func readCPU() cpuSnapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSnapshot{
		process: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:      s[0].Value.Float64(),
		total:   s[1].Value.Float64(),
		idle:    s[2].Value.Float64(),
	}
}

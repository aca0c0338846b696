package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share a trace id; parent is the index of the span that caused this one,
// or -1 for an operation's root.
type span struct {
	name   string
	trace  int
	parent int
	start  time.Duration // since tracer start
	end    time.Duration
}

// tracer records spans around the benchmark's own calls into the system.
// Spans are kept in memory and written out when the benchmark ends. A nil
// tracer records nothing, so untraced runs pay one nil check per boundary.
//
// begin/end keep a stack and so must be called from one goroutine (the load
// generator); add records a finished span from explicit times and is what
// asynchronous transaction lifecycles use.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	trace int
}

// newTracer returns a tracer whose span times count from t0, the same
// origin the runner's intervals use.
func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// Pause spans bracket what the benchmark does with an operation's clock
// stopped: the calibration kernel, and reads taken inside an exchange. They
// are children like any other, so self times exclude them; net durations
// (netTimes) subtract them at every depth, and nothing nested in them counts
// towards the operation's waterfall.
const (
	spanCalibrate = "host.calibrate"
	spanRead      = "bench.read"
)

func isPause(name string) bool { return name == spanCalibrate || name == spanRead }

// inPause reports whether span i is a pause span or nested in one.
func inPause(spans []span, i int) bool {
	for ; i >= 0; i = spans[i].parent {
		if isPause(spans[i].name) {
			return true
		}
	}
	return false
}

// startTrace opens a new trace: the spans that follow belong to one
// operation.
func (t *tracer) startTrace() {
	if t != nil {
		t.trace++
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, trace: t.trace, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// addRoot records a finished operation that was not bracketed by
// begin/end — an asynchronous transaction, admission to receipt — as a
// trace of its own.
func (t *tracer) addRoot(name string, iv interval) {
	if t == nil {
		return
	}
	t.trace++
	t.spans = append(t.spans, span{name: name, trace: t.trace, parent: -1, start: iv.start, end: iv.end})
}

// netTimes returns each span's duration minus the pause spans nested
// anywhere below it.
func netTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start
	}
	for _, s := range spans {
		// Only outermost pauses: a calibration inside a read pause is
		// already inside the read's interval.
		if !isPause(s.name) || inPause(spans, s.parent) {
			continue
		}
		for p := s.parent; p >= 0; p = spans[p].parent {
			out[p] -= s.end - s.start
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, cursor), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// load the file in chrome://tracing or ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, one thread row
// per trace id so an operation's waterfall reads left to right.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: s.trace,
			Args: map[string]int{"span": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is the module a span belongs to: the part of its name before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; an op's
// root span has Parent -1. Times are wall-clock nanoseconds since the
// run's epoch, so spans built from the daemon's own JSON timestamps sit
// on the same clock as perfbench's.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced ops run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now().Round(0)} }

// since is t's wall-clock offset from the epoch in nanoseconds.
func (t *tracer) since(at time.Time) int64 { return int64(at.Round(0).Sub(t.epoch)) }

// opTimer builds one op's span tree: the root opens with the op and each
// call inside it becomes a child. Spans are recorded when the op ends.
type opTimer struct {
	tr       *tracer
	op       int
	rootName string
	layer    string
	start    time.Time
	children []span
}

// begin opens an op; on a nil tracer it returns a nil opTimer, whose
// methods record nothing.
func (t *tracer) begin(op int, name, layer string, start time.Time) *opTimer {
	if t == nil {
		return nil
	}
	return &opTimer{tr: t, op: op, rootName: name, layer: layer, start: start}
}

// child adds a span under the op's root.
func (o *opTimer) child(name, layer string, start, end time.Time) {
	if o == nil {
		return
	}
	o.children = append(o.children, span{Name: name, Layer: layer, Start: o.tr.since(start), End: o.tr.since(end)})
}

// end records the root and its children.
func (o *opTimer) end(end time.Time) {
	if o == nil {
		return
	}
	t := o.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.spans)
	t.spans = append(t.spans, span{Op: o.op, ID: root, Parent: -1, Name: o.rootName, Layer: o.layer,
		Start: t.since(o.start), End: t.since(end)})
	for _, c := range o.children {
		c.Op, c.ID, c.Parent = o.op, len(t.spans), root
		t.spans = append(t.spans, c)
	}
}

// selfTimes returns each layer's self time in one op's spans: a span's
// duration minus the part of it covered by its children (overlapping
// children count once). When children lie inside their parent and do not
// overlap one another, the self times sum to the root's duration.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerBreakdown splits every traced op into layer self times and
// reports their means per op (self.<layer>.ms) and the mean traced op
// time they add up to (trace.op_ms). It fails if an op's self times do
// not sum to its root span, which would mean overlapping sibling spans.
func (c *collector) layerBreakdown(spans []span) error {
	byOp := make(map[int][]span)
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	if len(byOp) == 0 {
		return nil
	}
	sums := make(map[string]float64)
	var opTotal float64
	for op, ss := range byOp {
		var root int64 = -1
		for _, s := range ss {
			if s.Parent < 0 {
				root = s.dur()
			}
		}
		var sum int64
		for l, v := range selfTimes(ss) {
			sum += v
			sums[l] += float64(v)
		}
		if root < 0 || sum != root {
			return fmt.Errorf("op %d: layer self times sum to %dns, root span is %dns", op, sum, root)
		}
		opTotal += float64(root)
	}
	n := float64(len(byOp)) * float64(time.Millisecond)
	for _, l := range layers {
		c.set("self."+l+".ms", sums[l]/n)
	}
	c.set("trace.op_ms", opTotal/n)
	for l := range sums {
		if _, ok := c.values["self."+l+".ms"]; !ok {
			return fmt.Errorf("span layer %q is not a known layer", l)
		}
	}
	return nil
}

// spanDurations returns the durations in ms of the spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

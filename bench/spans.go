package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval of one event's life, recorded by a wrapper at
// a layer boundary. Spans of one event share Seq — the broker sequence,
// which PubAck, Deliver and the broker's observers all carry. Parent names
// the span of the same Seq that caused this one ("" for the root). Times
// are nanoseconds since the traced phase began.
type span struct {
	Seq    int64  `json:"seq"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, for the spans of one event, each span's self time: its
// duration minus the part of its interval that its direct children cover.
// Spans sharing a name (one per shard) add up under it.
// Children may overlap each other (parallel shard decides) and may stick
// out of the parent; covered time is the measure of the union of the
// children clipped to the parent, so nothing is subtracted twice.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.Name])
	}
	return out
}

// covered is the length of the union of children's intervals inside parent.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// budgetRow is one line of the self-time table.
type budgetRow struct {
	name   string
	meanUs float64 // mean self time over the median band
	p50Us  float64 // median self time over every timed event
}

// budget is the per-layer split of the delivery latency. Per-layer medians
// do not add up to the median of the total, so the table is computed over
// the median band: the events whose end-to-end latency lies between the
// 40th and the 60th percentile. Each event's self times sum to its own
// latency exactly, hence the band means sum to the band's mean latency,
// which sits at the p50.
type budget struct {
	rows       []budgetRow
	bandMeanUs float64 // mean end-to-end latency of the band
	p50Us      float64 // median end-to-end latency of every timed event
	events     int     // timed events
	band       int     // events in the band
}

// makeBudget builds the table from per-event span sets. root names the span
// covering the whole event; order fixes the row order (names absent from
// order follow alphabetically).
func makeBudget(events [][]span, root string, order []string) budget {
	type ev struct {
		total int64
		self  map[string]int64
	}
	evs := make([]ev, 0, len(events))
	for _, spans := range events {
		var total int64 = -1
		for _, s := range spans {
			if s.Name == root {
				total = s.dur()
			}
		}
		if total < 0 {
			continue
		}
		evs = append(evs, ev{total: total, self: selfTimes(spans)})
	}
	b := budget{events: len(evs)}
	if len(evs) == 0 {
		return b
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].total < evs[j].total })
	totals := make([]float64, len(evs))
	for i, e := range evs {
		totals[i] = float64(e.total) / 1e3
	}
	b.p50Us = percentile(totals, 50)
	lo, hi := len(evs)*40/100, len(evs)*60/100
	if hi <= lo {
		lo, hi = 0, len(evs)
	}
	band := evs[lo:hi]
	b.band = len(band)
	b.bandMeanUs = mean(totals[lo:hi])

	names := map[string]bool{}
	for _, e := range evs {
		for n := range e.self {
			names[n] = true
		}
	}
	var rest []string
	seen := map[string]bool{}
	for _, n := range order {
		seen[n] = true
	}
	for n := range names {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(append([]string(nil), order...), rest...) {
		if !names[n] {
			continue
		}
		var sum float64
		for _, e := range band {
			sum += float64(e.self[n])
		}
		all := make([]float64, 0, len(evs))
		for _, e := range evs {
			if v, ok := e.self[n]; ok {
				all = append(all, float64(v)/1e3)
			}
		}
		b.rows = append(b.rows, budgetRow{name: n, meanUs: sum / float64(len(band)) / 1e3, p50Us: median(all)})
	}
	return b
}

// row returns the band-mean self time of a span name (0 if absent).
func (b budget) row(name string) float64 {
	for _, r := range b.rows {
		if r.name == name {
			return r.meanUs
		}
	}
	return 0
}

// sumUs is the total of the table's band means.
func (b budget) sumUs() float64 {
	s := 0.0
	for _, r := range b.rows {
		s += r.meanUs
	}
	return s
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, events [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, spans := range events {
		for _, s := range spans {
			if s.Parent == "" {
				fmt.Fprintf(w, `{"seq":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.Seq, s.Name, s.Start, s.End)
			} else {
				fmt.Fprintf(w, `{"seq":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.Seq, s.Name, s.Parent, s.Start, s.End)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []span{
		{Seq: 7, Name: "event", Start: 0, End: 1000},
		{Seq: 7, Name: "ingress", Parent: "event", Start: 0, End: 200},
		{Seq: 7, Name: "backend", Parent: "event", Start: 200, End: 700},
		{Seq: 7, Name: "shard", Parent: "backend", Start: 250, End: 650},
		{Seq: 7, Name: "egress", Parent: "event", Start: 700, End: 900},
	}
	self := selfTimes(spans)
	want := map[string]int64{"event": 100, "ingress": 200, "backend": 100, "shard": 400, "egress": 200}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

// Parallel children must not be subtracted twice, and a child reaching
// past its parent only counts for the part inside it.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "router", Start: 100, End: 600},
		{Name: "shard", Parent: "router", Start: 150, End: 400},
		{Name: "shard", Parent: "router", Start: 300, End: 500}, // overlaps the first by 100
		{Name: "late", Parent: "router", Start: 550, End: 900},  // 50 inside, 300 outside
		{Name: "early", Parent: "router", Start: 0, End: 120},   // 20 inside
		{Name: "outside", Parent: "router", Start: 700, End: 800},
	}
	// Covered: [100,120] ∪ [150,500] ∪ [550,600] = 20 + 350 + 50 = 420.
	if got := selfTimes(spans)["router"]; got != 500-420 {
		t.Errorf("router self time = %d, want %d", got, 500-420)
	}
	if got := covered(spans[0], nil); got != 0 {
		t.Errorf("no children cover %d, want 0", got)
	}
}

// chain builds the span set of one event whose three segments tile its life.
func chain(seq, a, b, c int64) []span {
	return []span{
		{Seq: seq, Name: "event", Start: 0, End: a + b + c},
		{Seq: seq, Name: "in", Parent: "event", Start: 0, End: a},
		{Seq: seq, Name: "work", Parent: "event", Start: a, End: a + b},
		{Seq: seq, Name: "out", Parent: "event", Start: a + b, End: a + b + c},
	}
}

func TestBudgetRowsSumToTheBandMean(t *testing.T) {
	var events [][]span
	for i := int64(0); i < 100; i++ {
		// Totals 1000, 1010, … so the median band is well defined; one
		// outlier far in the tail must not move the table.
		events = append(events, chain(i, 200+i, 500+8*i, 300+i))
	}
	events = append(events, chain(100, 200, 900000, 300))
	b := makeBudget(events, "event", []string{"in", "work", "out", "event"})
	if b.events != 101 || b.band == 0 {
		t.Fatalf("events %d band %d", b.events, b.band)
	}
	if got, want := len(b.rows), 4; got != want {
		t.Fatalf("rows %d, want %d", got, want)
	}
	if b.rows[0].name != "in" || b.rows[3].name != "event" {
		t.Errorf("row order %v", b.rows)
	}
	if !almost(b.sumUs(), b.bandMeanUs) {
		t.Errorf("rows sum to %v us, band mean latency is %v us", b.sumUs(), b.bandMeanUs)
	}
	if b.row("event") != 0 {
		t.Errorf("a fully tiled event leaves %v us unattributed, want 0", b.row("event"))
	}
	if d := b.bandMeanUs/b.p50Us - 1; d > 0.02 || d < -0.02 {
		t.Errorf("band mean %v us is not at the p50 %v us", b.bandMeanUs, b.p50Us)
	}
	if b.row("work") > 2 {
		t.Errorf("the tail outlier leaked into the band: work = %v us", b.row("work"))
	}
}

func TestWriteSpansJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, [][]span{chain(3, 10, 20, 30)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), raw)
	}
	if want := `{"seq":3,"name":"event","start_ns":0,"end_ns":60}`; lines[0] != want {
		t.Errorf("root line %s, want %s", lines[0], want)
	}
	if want := `{"seq":3,"name":"work","parent":"event","start_ns":10,"end_ns":30}`; lines[2] != want {
		t.Errorf("child line %s, want %s", lines[2], want)
	}
}

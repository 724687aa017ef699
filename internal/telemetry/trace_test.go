package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestTracerConfigValidation(t *testing.T) {
	if _, err := NewTracer(TracerConfig{SampleRate: 1.5}); err == nil {
		t.Fatal("sample rate > 1 accepted")
	}
	if _, err := NewTracer(TracerConfig{SampleRate: -0.1}); err == nil {
		t.Fatal("negative sample rate accepted")
	}
	if _, err := NewTracer(TracerConfig{Capacity: -3}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	tr, err := NewTracer(TracerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Sampled(123) {
		t.Fatal("default tracer must sample everything")
	}
}

// TestSamplingDeterminism: a fixed (seed, rate) samples exactly the same
// event set every run, a different seed samples a different set, and the
// realised rate is close to the configured one.
func TestSamplingDeterminism(t *testing.T) {
	const n = 20000
	const rate = 0.1
	pick := func(seed int64) []int64 {
		tr, err := NewTracer(TracerConfig{SampleRate: rate, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for seq := int64(0); seq < n; seq++ {
			if tr.Sampled(seq) {
				out = append(out, seq)
			}
		}
		return out
	}
	a, b := pick(42), pick(42)
	if len(a) != len(b) {
		t.Fatalf("same seed sampled %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if got := float64(len(a)) / n; math.Abs(got-rate) > 0.02 {
		t.Fatalf("realised rate %v, configured %v", got, rate)
	}
	c := pick(43)
	same := 0
	for i := 0; i < len(a) && i < len(c); i++ {
		if a[i] == c[i] {
			same++
		}
	}
	if len(c) > 0 && same == len(a) {
		t.Fatal("different seeds sampled identical sets")
	}
}

func TestRingEviction(t *testing.T) {
	tr, err := NewTracer(TracerConfig{Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 5; seq++ {
		tr.Begin(seq)
	}
	got := tr.Traces()
	if len(got) != 3 {
		t.Fatalf("ring held %d traces, want 3", len(got))
	}
	for i, want := range []int64{2, 3, 4} {
		if got[i].Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d (oldest first)", i, got[i].Seq, want)
		}
	}
	if tr.Count() != 5 {
		t.Fatalf("Count = %d, want 5", tr.Count())
	}
}

func TestTraceJSONL(t *testing.T) {
	tr, err := NewTracer(TracerConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	et := tr.Begin(7)
	if et == nil {
		t.Fatal("default tracer returned nil trace")
	}
	st := time.Now()
	et.Add("decide", st, 42*time.Microsecond, -1, -1, "")
	et.Add("ack", st, time.Millisecond, 12, 3, "multicast")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Seq   int64  `json:"seq"`
			Spans []Span `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if rec.Seq != 7 || len(rec.Spans) != 2 {
			t.Fatalf("unexpected record: %+v", rec)
		}
		if rec.Spans[1].Name != "ack" || rec.Spans[1].Node != 12 || rec.Spans[1].Group != 3 ||
			rec.Spans[1].Note != "multicast" {
			t.Fatalf("span fields lost: %+v", rec.Spans[1])
		}
	}
	if lines != 1 {
		t.Fatalf("JSONL had %d lines, want 1", lines)
	}
}

func TestUnsampledBeginIsNil(t *testing.T) {
	tr, err := NewTracer(TracerConfig{SampleRate: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < 100; seq++ {
		et := tr.Begin(seq)
		if (et != nil) != tr.Sampled(seq) {
			t.Fatalf("Begin/Sampled disagree at seq %d", seq)
		}
		// nil traces must be safe to use.
		et.Add("x", time.Now(), 0, 0, 0, "")
	}
}

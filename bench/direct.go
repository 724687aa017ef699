package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federate"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The *(direct)* metrics: the benchmark calls a layer's public function in
// a loop over the workload's own event stream and reports the mean cost of
// a call. They isolate a layer's CPU work from the waiting that dominates
// the socket path, so a change inside one layer shows here first.

// timeOp calls f in batches until at least minDur has passed and returns
// the mean nanoseconds per call. i counts calls from zero.
func timeOp(minDur time.Duration, f func(i int)) float64 {
	calls, batch := 0, 64
	start := time.Now()
	for {
		for k := 0; k < batch; k++ {
			f(calls)
			calls++
		}
		if el := time.Since(start); el >= minDur {
			return float64(el.Nanoseconds()) / float64(calls)
		}
		batch *= 2
	}
}

const directMin = 60 * time.Millisecond

func directWire(events []workload.Event, m *metricSet) error {
	var buf []byte
	m.set("wire.publish_encode_ns", timeOp(directMin, func(i int) {
		buf = wire.AppendPublish(buf[:0], wire.Publish{PSeq: int64(i), Ev: events[i%len(events)]})
	}))
	pub := wire.AppendPublish(nil, wire.Publish{PSeq: 1, Ev: events[0]})
	var derr error
	m.set("wire.publish_decode_ns", timeOp(directMin, func(int) {
		if _, err := wire.DecodePublish(pub); err != nil {
			derr = err
		}
	}))

	const batch = 16
	ds := make([]wire.Deliver, batch)
	for i := range ds {
		ds[i] = wire.Deliver{Did: int64(i + 1), Node: 3, Seq: int64(i), Ev: events[i%len(events)], Group: -1, Interested: true}
	}
	m.set("wire.deliver_encode_ns", timeOp(directMin, func(int) {
		buf = wire.AppendDeliverBatch(buf[:0], ds)
	})/batch)
	frame := wire.AppendDeliverBatch(nil, ds)
	var scratch []wire.Deliver
	m.set("wire.deliver_decode_ns", timeOp(directMin, func(int) {
		out, err := wire.DecodeDeliverBatchInto(frame, scratch[:0])
		if err != nil {
			derr = err
		}
		scratch = out
	})/batch)

	var pipe bytes.Buffer
	w := wire.NewWriter(&pipe, wire.DefaultMaxFrame)
	r := wire.NewReader(&pipe, wire.DefaultMaxFrame)
	m.set("wire.frame_rw_ns", timeOp(directMin, func(int) {
		if err := w.WriteFrame(pub); err != nil {
			derr = err
		}
		if err := w.Flush(); err != nil {
			derr = err
		}
		if _, err := r.ReadFrame(); err != nil {
			derr = err
		}
	}))
	runtime.KeepAlive(buf) // the encode results must not be optimised away
	if derr != nil {
		return fmt.Errorf("direct wire benchmark: %w", derr)
	}
	return nil
}

// directCore measures the decision plane on an engine the benchmark owns
// (after the traced stack's broker handed it back).
func directCore(e *core.Engine, events []workload.Event, m *metricSet) error {
	snap := e.Snapshot()
	view := e.NewSPTView()
	var sc core.DecideScratch
	decide := func(i int) { snap.DecideInto(events[i%len(events)], view, &sc) }
	for i := 0; i < len(events) && i < 2000; i++ {
		decide(i) // grow the scratch buffers before counting allocations
	}
	m.set("core.decide_ns", timeOp(2*directMin, decide))
	var a, b runtime.MemStats
	const calls = 2000
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		decide(i)
	}
	runtime.ReadMemStats(&b)
	m.set("core.decide_allocs", float64(b.Mallocs-a.Mallocs)/calls)

	// One subscription change as the broker's writer performs it: mutate
	// the engine, then publish a snapshot (the O(N) clone).
	sub := e.World().Subs[0]
	const rounds = 12
	var us, bytesPer []float64
	for k := 0; k < rounds; k++ {
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		slot, err := e.AddSubscription(sub)
		if err != nil {
			return fmt.Errorf("direct core benchmark: %w", err)
		}
		e.Snapshot()
		el := time.Since(t0)
		runtime.ReadMemStats(&b)
		us = append(us, float64(el.Nanoseconds())/1e3)
		bytesPer = append(bytesPer, float64(b.TotalAlloc-a.TotalAlloc))
		if err := e.RemoveSubscription(slot); err != nil {
			return fmt.Errorf("direct core benchmark: %w", err)
		}
	}
	m.set("core.snapshot_us", median(us))
	m.set("core.snapshot_alloc_bytes", median(bytesPer))
	return nil
}

// directDurable measures the journal on a store of its own under scratch:
// a buffered append, and an append with its group-commit fsync.
func directDurable(scratch string, events []workload.Event, m *metricSet) error {
	dir, err := os.MkdirTemp(scratch, "direct-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := durable.Open(dir, durable.BaseInfo{}, durable.Options{CheckpointRecords: -1, CheckpointInterval: -1})
	if err != nil {
		return err
	}
	const buffered = 20000
	recs := make([]durable.PublishRecord, 64)
	seq := int64(0)
	t0 := time.Now()
	for n := 0; n < buffered; n += len(recs) {
		for i := range recs {
			recs[i] = durable.PublishRecord{Seq: seq, Ev: events[int(seq)%len(events)]}
			seq++
		}
		if err := store.AppendPublishes(recs); err != nil {
			store.Close()
			return err
		}
	}
	m.set("durable.append_ns", float64(time.Since(t0).Nanoseconds())/buffered)
	if err := store.Sync(); err != nil {
		store.Close()
		return err
	}
	var syncErr error
	ns := timeOp(3*directMin, func(int) {
		if err := store.AppendPublish(seq, events[int(seq)%len(events)]); err != nil {
			syncErr = err
		}
		seq++
	})
	m.set("durable.append_sync_us", ns/1e3)
	if err := store.Close(); err != nil {
		return err
	}
	return syncErr
}

// directDerive times federate.Derive over the workload's population.
func directDerive(w *workload.World) (time.Duration, error) {
	train := w.Events(2000, worldSeed+2)
	t0 := time.Now()
	_, err := federate.Derive(w, train, 4)
	return time.Since(t0), err
}

package transport

import (
	"net"

	"repro/internal/telemetry"
)

// metrics caches the transport's telemetry handles (scope "wire" for the
// server, "wire_client" for clients) so the frame hot paths never touch a
// registry map.
type metrics struct {
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	framesIn  *telemetry.Counter
	framesOut *telemetry.Counter

	connsAccepted  *telemetry.Counter
	connsActive    *telemetry.Gauge
	sessionsActive *telemetry.Gauge
	resumes        *telemetry.Counter
	expired        *telemetry.Counter

	publishes    *telemetry.Counter
	publishDups  *telemetry.Counter
	deliveries   *telemetry.Counter
	redeliveries *telemetry.Counter

	creditStalls   *telemetry.Counter
	dispatchStalls *telemetry.Counter
	badFrames      *telemetry.Counter
	versionReject  *telemetry.Counter

	// writeNs is the per-flush wall time on a connection writer — the
	// conn-level write latency whose p99 the bench records.
	writeNs *telemetry.Histogram
	// flushBytes / flushFrames size each coalesced flush.
	flushBytes  *telemetry.Histogram
	flushFrames *telemetry.Histogram
	// batchSize is the number of deliveries coalesced per deliver frame.
	batchSize *telemetry.Histogram
	// flushLate is how long after its deadline the flush wheel fired a
	// session's window: the timer's own lateness.
	flushLate *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry, scope string) *metrics {
	s := reg.Scope(scope)
	return &metrics{
		bytesIn:        s.Counter("bytes_in"),
		bytesOut:       s.Counter("bytes_out"),
		framesIn:       s.Counter("frames_in"),
		framesOut:      s.Counter("frames_out"),
		connsAccepted:  s.Counter("conns_accepted"),
		connsActive:    s.Gauge("conns_active"),
		sessionsActive: s.Gauge("sessions_active"),
		resumes:        s.Counter("session_resumes"),
		expired:        s.Counter("sessions_expired"),
		publishes:      s.Counter("publishes"),
		publishDups:    s.Counter("publish_dups"),
		deliveries:     s.Counter("deliveries_sent"),
		redeliveries:   s.Counter("redeliveries_sent"),
		creditStalls:   s.Counter("credit_stalls"),
		dispatchStalls: s.Counter("dispatch_stalls"),
		badFrames:      s.Counter("bad_frames"),
		versionReject:  s.Counter("version_rejects"),
		writeNs:        s.Histogram("write_ns", telemetry.LatencyBuckets()),
		flushBytes:     s.Histogram("flush_bytes", telemetry.PowerOfTwoBuckets(16, 16)),
		flushFrames:    s.Histogram("flush_frames", telemetry.LinearBuckets(0, 4, 16)),
		batchSize:      s.Histogram("deliver_batch_size", telemetry.LinearBuckets(0, 4, 16)),
		flushLate:      s.Histogram("flush_late_ns", telemetry.LatencyBuckets()),
	}
}

// countingConn counts raw wire bytes (ciphertext when TLS wraps it) into
// the transport's byte counters.
type countingConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

package faults

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnConfig parameterises connection-level fault injection for the wire
// transport. Every decision is a pure hash of (seed, connection index, operation index), so a fault schedule
// replays identically regardless of goroutine interleaving — a (seed,
// config) pair fully identifies which byte of which connection dies.
type ConnConfig struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// ChunkBytes caps the bytes handed to the underlying conn per Write
	// call, splitting large frames across several TCP segments so peers
	// must reassemble partial writes (0 = unchanged).
	ChunkBytes int
	// WriteStallProb stalls a write chunk for up to MaxStall.
	WriteStallProb float64
	// ReadStallProb stalls a read for up to MaxStall.
	ReadStallProb float64
	// MaxStall caps injected stalls (default 2ms when a stall probability
	// is set).
	MaxStall time.Duration
	// CutAfterBytes force-closes the k-th wrapped connection after its
	// total traffic (bytes read + written) first reaches CutAfterBytes[k]
	// — from the peer's side this is a connection reset mid-stream, and
	// from the wrapped side the next operation fails. Connections past the
	// end of the slice are never cut; a value ≤ 0 never cuts.
	CutAfterBytes []int64
}

func (c ConnConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"WriteStallProb", c.WriteStallProb}, {"ReadStallProb", c.ReadStallProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %v, need [0, 1]", p.name, p.v)
		}
	}
	if c.ChunkBytes < 0 {
		return fmt.Errorf("faults: ChunkBytes = %d, need ≥ 0", c.ChunkBytes)
	}
	if c.MaxStall < 0 {
		return fmt.Errorf("faults: MaxStall = %v, need ≥ 0", c.MaxStall)
	}
	return nil
}

// ConnInjector wraps net.Conns with deterministic connection-level faults:
// partial writes, stalled reads/writes, and scheduled mid-stream resets.
// Safe for concurrent use; each Wrap call consumes the next connection
// index in the cut schedule.
type ConnInjector struct {
	cfg  ConnConfig
	next atomic.Int64
}

// NewConnInjector validates the config and builds an injector.
func NewConnInjector(cfg ConnConfig) (*ConnInjector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxStall == 0 && (cfg.WriteStallProb > 0 || cfg.ReadStallProb > 0) {
		cfg.MaxStall = 2 * time.Millisecond
	}
	return &ConnInjector{cfg: cfg}, nil
}

// Wraps reports how many connections have been wrapped so far.
func (ci *ConnInjector) Wraps() int64 { return ci.next.Load() }

// Wrap returns c with the injector's fault schedule applied, consuming
// the next connection index. The returned conn is safe for one concurrent
// reader plus one concurrent writer (the transport's usage).
func (ci *ConnInjector) Wrap(c net.Conn) net.Conn {
	idx := ci.next.Add(1) - 1
	fc := &faultConn{Conn: c, cfg: ci.cfg, idx: idx, cutAt: -1}
	if int(idx) < len(ci.cfg.CutAfterBytes) && ci.cfg.CutAfterBytes[idx] > 0 {
		fc.cutAt = ci.cfg.CutAfterBytes[idx]
	}
	return fc
}

// faultConn applies one connection's fault schedule.
type faultConn struct {
	net.Conn
	cfg   ConnConfig
	idx   int64
	cutAt int64 // cut when traffic ≥ cutAt; -1 = never

	traffic atomic.Int64 // bytes read + written
	readOp  atomic.Int64 // read operation counter (hash key)
	writeOp atomic.Int64 // write operation counter (hash key)
	cut     atomic.Bool

	cutOnce sync.Once
}

// roll returns a deterministic uniform [0, 1) for an operation.
func (f *faultConn) roll(kind, op int64) float64 {
	h := splitmix64(uint64(f.cfg.Seed)<<1 ^ uint64(f.idx)*0x9e3779b97f4a7c15 ^ uint64(kind)<<32 ^ uint64(op))
	return float64(h>>11) / (1 << 53)
}

// maybeCut closes the connection once total traffic passes the scheduled
// threshold. SetLinger(0) turns the close into a genuine TCP reset when
// the underlying conn supports it, so the peer observes ECONNRESET
// mid-frame rather than a clean FIN.
func (f *faultConn) maybeCut() bool {
	if f.cutAt < 0 || f.traffic.Load() < f.cutAt {
		return false
	}
	f.cutOnce.Do(func() {
		f.cut.Store(true)
		if tc, ok := f.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		f.Conn.Close()
	})
	return true
}

func (f *faultConn) stall(prob float64, kind, op int64) {
	if prob <= 0 || f.roll(kind, op) >= prob {
		return
	}
	frac := f.roll(kind+2, op)
	time.Sleep(time.Duration(frac * float64(f.cfg.MaxStall)))
}

func (f *faultConn) Read(p []byte) (int, error) {
	if f.maybeCut() {
		return 0, net.ErrClosed
	}
	op := f.readOp.Add(1)
	f.stall(f.cfg.ReadStallProb, 1, op)
	n, err := f.Conn.Read(p)
	f.traffic.Add(int64(n))
	return n, err
}

func (f *faultConn) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		if f.maybeCut() {
			return written, net.ErrClosed
		}
		chunk := p
		if f.cfg.ChunkBytes > 0 && len(chunk) > f.cfg.ChunkBytes {
			chunk = chunk[:f.cfg.ChunkBytes]
		}
		op := f.writeOp.Add(1)
		f.stall(f.cfg.WriteStallProb, 3, op)
		n, err := f.Conn.Write(chunk)
		written += n
		f.traffic.Add(int64(n))
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// WasCut reports whether this connection's scheduled reset has fired —
// exposed for tests via the Cut helper below.
func (f *faultConn) WasCut() bool { return f.cut.Load() }

// ConnWasCut reports whether a conn returned by Wrap has had its
// scheduled mid-stream reset fire. Returns false for unwrapped conns.
func ConnWasCut(c net.Conn) bool {
	if fc, ok := c.(*faultConn); ok {
		return fc.WasCut()
	}
	return false
}

// splitmix64 is the SplitMix64 finalizer — a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/space"
	"repro/internal/transport"
)

// clientCredits is the delivery window both connections grant. It equals
// the server's default SessionBuffer: large enough that F·rate deliveries/s
// never run the window dry between cumulative acks, small enough that the
// server's queued+unacked bound is still reached before the credits are.
const clientCredits = 1024

// deployment is one launched workload: the daemon(s) of its shape plus the
// generator's two connections with the receiver's subscriptions in place.
type deployment struct {
	wl      workloadDef
	daemons []*daemon // [0] serves clients and -http; [1] is the standby
	pids    []int     // process ids read through /proc, parallel to daemons
	// stop, when set, ends a deployment that is not a set of daemons (the
	// tests' in-process one); destroy and drainAll call it once.
	stop   func() error
	dirs   []string // data dirs, parallel to daemons ("" = none)
	runDir string   // parent of the data dirs ("" = the shape has none)
	addr   string   // client listen address of daemons[0]
	http   string   // telemetry address of daemons[0]
	// setup is exec of the first daemon → every daemon listening, standby
	// mirrored, receiver subscriptions acked.
	setup time.Duration

	clients
}

// clients is the generator's side of a run: one publisher connection and
// one receiver connection, no more, each counting its socket bytes.
type clients struct {
	pub, recv           *transport.Conn
	pubBytes, recvBytes *connCounter
}

// dialClients connects both to addr and places the receiver's
// subscriptions: the whole space as each of the F owner nodes, plus the one
// narrow rectangle.
func dialClients(addr string, tr *traffic) (c clients, err error) {
	c.pubBytes, c.recvBytes = new(connCounter), new(connCounter)
	if c.pub, err = transport.Dial(transport.ClientConfig{Addr: addr, Credits: clientCredits, Dialer: c.pubBytes.dial}); err != nil {
		return c, fmt.Errorf("dial publisher: %w", err)
	}
	if c.recv, err = transport.Dial(transport.ClientConfig{Addr: addr, Credits: clientCredits, Dialer: c.recvBytes.dial}); err != nil {
		c.close()
		return c, fmt.Errorf("dial receiver: %w", err)
	}
	full := space.FullRect(len(tr.narrow))
	for _, n := range tr.owners {
		if _, err := c.recv.Subscribe(n, full); err != nil {
			c.close()
			return c, fmt.Errorf("subscribe owner %d: %w", n, err)
		}
	}
	if _, err := c.recv.Subscribe(tr.narrowOwner, tr.narrow); err != nil {
		c.close()
		return c, fmt.Errorf("subscribe narrow rectangle: %w", err)
	}
	return c, nil
}

// close closes whichever connections are open.
func (c *clients) close() {
	if c.pub != nil {
		c.pub.Close()
		c.pub = nil
	}
	if c.recv != nil {
		c.recv.Close()
		c.recv = nil
	}
}

// wireBytes is the socket bytes moved so far, both ways, both connections.
func (c *clients) wireBytes() int64 { return c.pubBytes.total() + c.recvBytes.total() }

// startReceivers starts the goroutines that drain the two connections;
// they end when the connections close. The returned slot is where the
// receiver goroutine looks for the collector of the current phase.
func (c *clients) startReceivers() *atomic.Pointer[collector] {
	sink := new(atomic.Pointer[collector])
	go recvLoop(c.recv, sink)
	go discardLoop(c.pub)
	return sink
}

const startTimeout = 60 * time.Second

// deploy launches wl's deployment shape from serverBin with fresh data
// dirs under durableScratch, dials the two connections and subscribes the
// receiver. On error everything already started is torn down.
func deploy(wl workloadDef, serverBin, durableScratch string, tr *traffic) (dep *deployment, err error) {
	dep = &deployment{wl: wl}
	defer func() {
		if err != nil {
			dep.destroy()
			dep = nil
		}
	}()
	if wl.shape == shapeReplicated {
		if dep.runDir, err = os.MkdirTemp(durableScratch, wl.name+"-"); err != nil {
			return dep, err
		}
	}
	runDir := dep.runDir
	args := []string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-subs", strconv.Itoa(wl.subs), "-seed", strconv.Itoa(worldSeed),
	}
	leaderDir := ""
	switch wl.shape {
	case shapeReplicated:
		leaderDir = filepath.Join(runDir, "leader")
		args = append(args, "-data-dir", leaderDir)
	case shapeFed4:
		args = append(args, "-shards", "4")
	}
	begin := time.Now()
	d, err := startDaemon(serverBin, args...)
	if err != nil {
		return dep, err
	}
	dep.daemons = append(dep.daemons, d)
	dep.pids = append(dep.pids, d.pid())
	dep.dirs = append(dep.dirs, leaderDir)
	if dep.addr, err = listenAddr(d); err != nil {
		return dep, err
	}
	line, err := d.waitLine("telemetry:", startTimeout)
	if err != nil {
		return dep, err
	}
	i := strings.Index(line, "http://")
	if i < 0 {
		return dep, fmt.Errorf("no telemetry address in %q", line)
	}
	dep.http = line[i+len("http://"):]

	if wl.shape == shapeReplicated {
		standbyDir := filepath.Join(runDir, "standby")
		s, err := startDaemon(serverBin,
			"-listen", "127.0.0.1:0",
			"-subs", strconv.Itoa(wl.subs), "-seed", strconv.Itoa(worldSeed),
			"-data-dir", standbyDir, "-replica-of", dep.addr)
		if err != nil {
			return dep, err
		}
		dep.daemons = append(dep.daemons, s)
		dep.pids = append(dep.pids, s.pid())
		dep.dirs = append(dep.dirs, standbyDir)
		if _, err := s.waitLine("standby:", startTimeout); err != nil {
			return dep, err
		}
		// Mirrored: the leader's catch-up made the standby reset its
		// directory and open the journal the live stream appends to.
		deadline := time.Now().Add(startTimeout)
		for {
			if n, _ := filepath.Glob(filepath.Join(standbyDir, "journal.*.log")); len(n) > 0 {
				break
			}
			if time.Now().After(deadline) {
				return dep, fmt.Errorf("standby did not mirror within %v: %s", startTimeout, s.tail())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if dep.clients, err = dialClients(dep.addr, tr); err != nil {
		return dep, err
	}
	dep.setup = time.Since(begin)
	return dep, nil
}

// listenAddr waits for the daemon's "listening:" line and returns host:port.
func listenAddr(d *daemon) (string, error) {
	line, err := d.waitLine("listening:", startTimeout)
	if err != nil {
		return "", err
	}
	f := strings.Fields(line)
	if len(f) == 0 {
		return "", fmt.Errorf("no address in %q", line)
	}
	return f[0], nil
}

// destroy kills every daemon, waits for each to end and removes the data
// dirs. Safe on a partly built deployment and after drainAll.
func (dep *deployment) destroy() {
	dep.clients.close()
	for _, d := range dep.daemons {
		d.kill()
	}
	dep.stopOnce()
	if dep.runDir != "" {
		os.RemoveAll(dep.runDir)
	}
}

// awaitMirror waits, once traffic has stopped, until the standby's journal
// files equal the leader's in name and size — every record the leader
// journaled has been shipped, applied and flushed. A standby that fell
// out of the pair never gets there, so this is also the check that
// replication was alive for the whole run.
func (dep *deployment) awaitMirror(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	for {
		l, err := journalFiles(dep.dirs[0])
		if err != nil {
			return err
		}
		s, err := journalFiles(dep.dirs[1])
		if err != nil {
			return err
		}
		if l != "" && l == s {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby does not mirror the leader %v after traffic stopped: leader has [%s], standby [%s]", grace, l, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journalFiles lists dir's journal files as "name:size" pairs in name order.
func journalFiles(dir string) (string, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return "", err
	}
	var parts []string
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "journal.") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return "", nil // rotated away mid-listing; the caller retries
		}
		parts = append(parts, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
	}
	return strings.Join(parts, " "), nil
}

// drainAll shuts the deployment down gracefully — the leader first, then
// the standby before its failure detector can promote it — and reports a
// daemon that does not exit 0.
func (dep *deployment) drainAll() error {
	dep.clients.close()
	for _, d := range dep.daemons {
		if err := d.drain(20 * time.Second); err != nil {
			return err
		}
	}
	return dep.stopOnce()
}

func (dep *deployment) stopOnce() error {
	if dep.stop == nil {
		return nil
	}
	stop := dep.stop
	dep.stop = nil
	return stop()
}

package replicate

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/transport"
)

// selfSigned mints an in-memory certificate for loopback TLS tests.
func selfSigned(t *testing.T) (server *tls.Config, client *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "replicate-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}
	return &tls.Config{Certificates: []tls.Certificate{cert}},
		&tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
}

// runReplicateOverTransport proves a follower and ordinary wire clients
// can share one transport listener: the first frame routes the connection
// either to the replication handler or the client handshake.
func runReplicateOverTransport(t *testing.T, srvTLS *tls.Config, cliTLS *tls.Config) {
	t.Helper()
	seed := int64(701)
	cfg := core.Config{Groups: 25, CellBudget: 500}
	dirL, dirF := t.TempDir(), t.TempDir()
	o := newObs()
	e, w := testEngine(t, cfg, seed)
	ldr, err := OpenLeader(dirL, e, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2), o.observer())
	if err != nil {
		t.Fatal(err)
	}

	srv := transport.NewServer(transport.Config{TLS: srvTLS, ReplHandler: ldr.Accept})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln, ldr.Broker()) }()

	flw, err := StartFollower(FollowerConfig{
		Dir: dirF, Base: baseOf(w), Addr: ln.Addr().String(), TLS: cliTLS,
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "catch-up through the shared listener", flw.Synced)

	// An ordinary client coexists on the same port.
	cli, err := transport.Dial(transport.ClientConfig{Addr: ln.Addr().String(), TLS: cliTLS})
	if err != nil {
		t.Fatalf("client dial alongside replication: %v", err)
	}
	if err := cli.Ping(2 * time.Second); err != nil {
		t.Fatalf("client ping: %v", err)
	}
	if err := cli.Publish(w.Events(1, seed+20)[0]); err != nil {
		t.Fatalf("client publish: %v", err)
	}
	before := flw.Watermark()
	for i, ev := range w.Events(20, seed+10) {
		if _, err := ldr.DecideSeq(ev); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if flw.Watermark() <= before {
		t.Error("replication made no progress through the shared listener")
	}
	cli.Close()
	flw.Close()
	ldr.Close()
	ln.Close()
	<-serveDone
}

func TestReplicateOverTransport(t *testing.T) {
	runReplicateOverTransport(t, nil, nil)
}

func TestReplicateOverTransportTLS(t *testing.T) {
	srvTLS, cliTLS := selfSigned(t)
	runReplicateOverTransport(t, srvTLS, cliTLS)
}

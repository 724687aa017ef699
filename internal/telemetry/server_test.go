package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerEndpoints boots a real listener and exercises every route.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Scope("broker").Counter("deliveries").Add(9)
	tr, err := NewTracer(TracerConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr.Begin(1).Add("match", time.Now(), time.Microsecond, -1, -1, "")

	srv, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "repro_broker_deliveries 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}

	body, ct = get("/metrics.json")
	var snap map[string]ScopeSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("/metrics.json invalid: %v", err)
	} else if snap["broker"].Counters["deliveries"] != 9 {
		t.Errorf("/metrics.json wrong snapshot: %+v", snap)
	}
	if !strings.Contains(ct, "application/json") {
		t.Errorf("/metrics.json content type %q", ct)
	}

	body, _ = get("/trace")
	if !strings.Contains(body, `"name":"match"`) {
		t.Errorf("/trace missing span:\n%s", body)
	}

	body, _ = get("/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%.200s", body)
	}
}

func TestServeNilRegistryAndTracer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/trace"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

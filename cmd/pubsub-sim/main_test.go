package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// smallOpts is a fast run small enough for -short. It asks for no broker
// replay; each test enables one.
func smallOpts() options {
	return options{
		alg:       "forgy",
		groups:    20,
		subs:      200,
		modes:     1,
		events:    60,
		budget:    400,
		seed:      7,
		traceRate: 1,
		traceCap:  256,
	}
}

// TestValidateFlags: satellite guard — malformed replay/observability flags
// are rejected up front.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
		want   string
	}{
		{"churn-rate", func(o *options) { o.churnRate = -1 }, "-churn-rate"},
		{"decide-workers", func(o *options) { o.decideWorkers = -1 }, "-decide-workers"},
		{"trace-rate", func(o *options) { o.traceRate = 1.01 }, "-trace-rate"},
		{"trace-cap", func(o *options) { o.traceCap = 0 }, "-trace-cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := smallOpts()
			tc.mutate(&opt)
			err := opt.validate()
			if err == nil {
				t.Fatalf("validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the flag %s", err, tc.want)
			}
		})
	}
	if err := smallOpts().validate(); err != nil {
		t.Fatalf("validate rejected sane flags: %v", err)
	}
}

// TestDurableReplayRestart: -data-dir alone enables the broker replay, and
// a second run over the same directory recovers the clean checkpoint the
// first run's Close wrote.
func TestDurableReplayRestart(t *testing.T) {
	opt := smallOpts()
	opt.dataDir = t.TempDir()
	if !opt.replayRequested() {
		t.Fatal("flag plumbing wrong")
	}
	if err := run(opt); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(opt); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestServeEndToEnd runs a full broker replay with live churn and -http,
// and probes every observability endpoint on the live server.
func TestServeEndToEnd(t *testing.T) {
	opt := smallOpts()
	opt.churnRate = 0.2
	opt.httpAddr = "127.0.0.1:0"

	var addr string
	testHookServe = func(a string) { addr = a; probeEndpoints(t, a) }
	defer func() { testHookServe = nil }()

	if err := run(opt); err != nil {
		t.Fatalf("run: %v", err)
	}
	if addr == "" {
		t.Fatal("telemetry server never started")
	}
}

func probeEndpoints(t *testing.T, addr string) {
	t.Helper()
	base := "http://" + addr
	get := func(path string) string {
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
		return string(body)
	}

	// Prometheus exposition with both broker and core scopes populated.
	prom := get("/metrics")
	for _, want := range []string{
		"repro_broker_published",
		"repro_broker_deliver_latency_ns_bucket",
		"repro_core_decides",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s:\n%.400s", want, prom)
		}
	}

	// JSON snapshot parses and carries a non-trivial delivery count.
	var snap map[string]struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap["broker"].Counters["deliveries"] == 0 {
		t.Errorf("/metrics.json reports zero deliveries: %+v", snap)
	}

	// Trace export is JSONL: every line parses and spans include a decide.
	traces := get("/trace")
	sawDecide := false
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		lines++
		var rec struct {
			Seq   uint64 `json:"seq"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("/trace line %d invalid JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, s := range rec.Spans {
			if s.Name == "decide" {
				sawDecide = true
			}
		}
	}
	if lines == 0 {
		t.Error("/trace exported no traces")
	}
	if !sawDecide {
		t.Error("/trace has no decide span")
	}

	// pprof index answers.
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index did not render")
	}
}

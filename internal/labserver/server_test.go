package labserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"interplab/internal/alphasim"
	"interplab/internal/harness"
	"interplab/internal/rescache"
	"interplab/internal/telemetry"
)

// testProgram is a fast microbenchmark; every e2e test measures it so the
// suite stays quick.
const testProgram = "Perl/micro-if"

// newTestServer builds a Server plus its httptest front end.  The caller
// owns shutdown (typically `defer drainNow(t, srv)`).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 2
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postMeasure sends one measurement request and returns the raw response.
func postMeasure(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/measure", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeResponse(t *testing.T, b []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("response did not decode: %v\n%s", err, b)
	}
	return r
}

func TestHappyPathMeasure(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer drainNow(t, srv)

	resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Interp-Lab-Key") == "" {
		t.Error("missing X-Interp-Lab-Key header")
	}
	r := decodeResponse(t, body)
	m := r.Measurement
	if m.Program != testProgram || m.Kind != "measure" {
		t.Errorf("measurement names %q kind %q, want %q measure", m.Program, m.Kind, testProgram)
	}
	if m.Events == 0 {
		t.Error("measurement recorded zero events")
	}
	if m.Stats == nil {
		t.Error("measurement carries no software stats")
	}
	if r.Key == "" || r.Key != resp.Header.Get("X-Interp-Lab-Key") {
		t.Errorf("body key %q does not match header %q", r.Key, resp.Header.Get("X-Interp-Lab-Key"))
	}
}

// TestServedBytesMatchHarness pins the serving contract to the CLI path:
// the served measurement must be byte-identical (modulo wall time and
// cache provenance, which legitimately differ run to run) to the record
// the harness itself builds for the same request, and the two must share
// cache entries — a measurement the server performed is a cache hit for a
// CLI run with the same key, with identical measured bytes.
func TestServedBytesMatchHarness(t *testing.T) {
	cache, err := rescache.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Cache: cache})
	defer drainNow(t, srv)

	resp, body := postMeasure(t, ts.URL, Request{Kind: "pipeline", Program: testProgram})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	served := decodeResponse(t, body).Measurement

	// Re-run the identical request through the harness batch API with the
	// same shared cache, as a CLI run would: it must hit the entry the
	// server stored.
	b := harness.NewBatch(harness.Options{Out: io.Discard, Cache: cache})
	j, err := b.Submit(harness.BatchJob{
		Kind:    "pipeline",
		Program: mustResolve(t, Request{Kind: "pipeline", Program: testProgram}).prog,
		Config:  mustResolve(t, Request{Kind: "pipeline", Program: testProgram}).cfg,
		Scope:   &rescache.Scope{Experiment: "serve", Scale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Result().FromCache {
		t.Fatal("harness re-run missed the cache: server and CLI do not share entries")
	}
	direct := harness.NewMeasurement("pipeline", j.Result(), j.Duration(), nil)

	// Normalize the two legitimately-variable fields, then demand byte
	// identity of the records.
	served.DurationUS, direct.DurationUS = 0, 0
	served.CacheHit, direct.CacheHit = false, false
	sb, _ := json.Marshal(served)
	db, _ := json.Marshal(direct)
	if !bytes.Equal(sb, db) {
		t.Errorf("served measurement differs from the harness record:\nserved: %s\ndirect: %s", sb, db)
	}
}

func mustResolve(t *testing.T, req Request) *resolved {
	t.Helper()
	rr, herr := resolve(req)
	if herr != nil {
		t.Fatalf("resolve: %v", herr)
	}
	return rr
}

// TestSingleflightDedup sends a burst of identical concurrent requests
// and requires exactly one measurement: every other waiter joins the
// in-flight call, marked by the dedup header, and all responses are
// byte-identical.
func TestSingleflightDedup(t *testing.T) {
	const burst = 8
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, Config{Telemetry: reg, MaxBatch: 1, batchGate: gate})
	defer drainNow(t, srv)

	var wg sync.WaitGroup
	type result struct {
		status  int
		deduped bool
		body    []byte
	}
	results := make([]result, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
			results[i] = result{resp.StatusCode, resp.Header.Get("X-Interp-Lab-Deduped") == "1", body}
		}(i)
	}

	// Hold the batch until every joiner is registered, so the test pins
	// "N concurrent identical requests, one measurement" rather than
	// racing the batch to completion.
	waitFor(t, "all joiners deduped", func() bool {
		return reg.Counter("server.dedup_hits").Value() == burst-1
	})
	close(gate)
	wg.Wait()

	deduped := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if r.deduped {
			deduped++
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("request %d body differs from request 0:\n%s\n%s", i, r.body, results[0].body)
		}
	}
	if deduped != burst-1 {
		t.Errorf("%d of %d responses marked deduped, want %d", deduped, burst, burst-1)
	}
	if got := reg.Counter("core.measures").Value(); got != 1 {
		t.Errorf("burst of %d identical requests performed %d measurements, want exactly 1", burst, got)
	}
}

// TestDeadlineExceeded verifies the 504 path: a waiter with a tiny
// timeout gets cut loose while the measurement completes server-side and
// populates the shared cache for the retry.
func TestDeadlineExceeded(t *testing.T) {
	cache, err := rescache.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, Config{Telemetry: reg, Cache: cache, MaxBatch: 1, batchGate: gate})
	defer drainNow(t, srv)

	resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if got := reg.Counter("server.timeouts").Value(); got != 1 {
		t.Errorf("server.timeouts = %d, want 1", got)
	}
	close(gate)

	// The abandoned measurement still runs; once it lands, a retry is a
	// cache hit.
	waitFor(t, "abandoned measurement populated the cache", func() bool {
		resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
		return resp.StatusCode == http.StatusOK && decodeResponse(t, body).Measurement.CacheHit
	})
}

// TestQueueFullRejects fills the bounded admission queue and requires the
// overflow request to get 429 with a Retry-After hint, while everything
// admitted before it still completes.
func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv, ts := newTestServer(t, Config{Telemetry: reg, QueueDepth: 1, MaxBatch: 1, batchGate: gate})
	defer drainNow(t, srv)

	// First request: admitted, handed to the batcher, blocked at the gate.
	done1 := make(chan int, 1)
	go func() {
		resp, _ := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
		done1 <- resp.StatusCode
	}()
	waitFor(t, "batcher picked up the first request", func() bool { return srv.queueLen() == 0 })

	// Second request (distinct key): admitted, fills the depth-1 queue.
	done2 := make(chan int, 1)
	go func() {
		resp, _ := postMeasure(t, ts.URL, Request{Kind: "measure", Program: "Tcl/micro-if"})
		done2 <- resp.StatusCode
	}()
	waitFor(t, "second request queued", func() bool { return srv.queueLen() == 1 })

	// Third request (another distinct key): the queue is full — 429.
	body, _ := json.Marshal(Request{Kind: "measure", Program: "C/micro-if"})
	resp, err := http.Post(ts.URL+"/measure", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := reg.Counter("server.queue_rejects").Value(); got != 1 {
		t.Errorf("server.queue_rejects = %d, want 1", got)
	}

	close(gate)
	if got := <-done1; got != http.StatusOK {
		t.Errorf("first request finished %d, want 200", got)
	}
	if got := <-done2; got != http.StatusOK {
		t.Errorf("queued request finished %d, want 200", got)
	}
}

// TestGracefulDrain starts a drain with one request in flight: new
// admissions get 503, the health check flips unhealthy, and the in-flight
// request still completes before Drain returns.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{MaxBatch: 1, batchGate: gate})

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
		inflight <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return srv.queueLen() == 0 && srv.reg.Gauge("server.inflight").Value() > 0 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	waitFor(t, "drain began", srv.Draining)

	resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: "Tcl/micro-if"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission while draining: status %d, want 503: %s", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal(hbody, &h); err != nil || h.OK || !h.Draining {
		t.Errorf("healthz while draining: %s", hbody)
	}

	close(gate)
	if got := <-inflight; got != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain, want 200", got)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer drainNow(t, srv)

	cfgJSON := json.RawMessage(`{"kind":"measure","program":"Perl/micro-if","config":{}}`)
	cfg := alphasim.DefaultConfig()
	cfg.BHTEntries = 0
	zeroBHT, err := json.Marshal(Request{Kind: "pipeline", Program: "Perl/micro-if", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		method string
		body   string
		status int
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"garbage body", http.MethodPost, "{not json", http.StatusBadRequest},
		{"missing program", http.MethodPost, `{"kind":"measure"}`, http.StatusBadRequest},
		{"unknown program", http.MethodPost, `{"kind":"measure","program":"Perl/nonesuch"}`, http.StatusNotFound},
		{"unknown kind", http.MethodPost, `{"kind":"frobnicate","program":"Perl/micro-if"}`, http.StatusBadRequest},
		{"variant", http.MethodPost, `{"kind":"measure","program":"Perl/micro-if","variant":"x"}`, http.StatusBadRequest},
		{"config on measure", http.MethodPost, string(cfgJSON), http.StatusBadRequest},
		{"scale too large", http.MethodPost, `{"kind":"measure","program":"Perl/micro-if","scale":100}`, http.StatusBadRequest},
		{"negative scale", http.MethodPost, `{"kind":"measure","program":"Perl/micro-if","scale":-1}`, http.StatusBadRequest},
		{"empty pipeline config", http.MethodPost, `{"kind":"pipeline","program":"Perl/micro-if","config":{}}`, http.StatusBadRequest},
		{"zero BHT entries", http.MethodPost, string(zeroBHT), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/measure", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body did not decode: %s", body)
			}
			if tc.method == http.MethodGet && resp.Header.Get("Allow") != http.MethodPost {
				t.Errorf("405 without Allow: POST header")
			}
		})
	}
	if got := srv.reg.Counter("server.panics").Value(); got != 0 {
		t.Errorf("bad requests caused %d measurement panics, want 0", got)
	}
}

func TestProfilingRequest(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer drainNow(t, srv)

	resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram, Profiling: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	r := decodeResponse(t, body)
	if r.Profile == nil {
		t.Fatal("profiling request returned no profile artifact")
	}
	if r.Profile.Samples == 0 || r.Profile.Instructions == 0 {
		t.Errorf("empty profile artifact: %+v", r.Profile)
	}
	if r.Folded == "" {
		t.Error("profiling request returned no folded stacks")
	}
	if len(r.Pprof) == 0 {
		t.Error("profiling request returned no pprof bytes")
	}

	// Profiling is part of the content address: the plain measurement must
	// not alias the profiled one.
	plain, _ := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram})
	if plain.Header.Get("X-Interp-Lab-Key") == resp.Header.Get("X-Interp-Lab-Key") {
		t.Error("profiled and unprofiled requests share a cache key")
	}
}

func TestStatusz(t *testing.T) {
	cache, err := rescache.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Cache: cache})
	defer drainNow(t, srv)

	// One miss, one hit: the ratio must land at 1/2.
	for i := 0; i < 2; i++ {
		if resp, body := postMeasure(t, ts.URL, Request{Kind: "measure", Program: testProgram}); resp.StatusCode != http.StatusOK {
			t.Fatalf("measure %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz did not decode: %v\n%s", err, body)
	}
	if st.Build.Fingerprint != Info().Fingerprint {
		t.Errorf("statusz fingerprint %q, want %q", st.Build.Fingerprint, Info().Fingerprint)
	}
	if len(st.Batches) == 0 {
		t.Error("statusz retained no batch ledgers")
	}
	for _, b := range st.Batches {
		if b.Jobs.Finished == 0 {
			t.Errorf("batch ledger finished no jobs: %+v", b.Jobs)
		}
	}
	if st.CacheHitRatio != 0.5 {
		t.Errorf("cache hit ratio %g after one miss + one hit, want 0.5", st.CacheHitRatio)
	}
	if st.Cache == nil || st.Cache.Puts == 0 {
		t.Errorf("statusz cache block missing or empty: %+v", st.Cache)
	}
	if len(st.Metrics) == 0 {
		t.Error("statusz carries no metric snapshot")
	}

	tresp, err := http.Get(ts.URL + "/statusz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	for _, want := range []string{"interp-lab serve", "cache hit ratio", "recent batches", "server.requests"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text statusz missing %q:\n%s", want, text)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer drainNow(t, srv)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining {
		t.Errorf("healthz: %+v", h)
	}
	if h.Build.Fingerprint != rescache.Fingerprint() {
		t.Errorf("healthz fingerprint %q, want the lab binary fingerprint %q", h.Build.Fingerprint, rescache.Fingerprint())
	}
	if h.Build.CacheSchema != rescache.SchemaVersion {
		t.Errorf("healthz cache schema %d, want %d", h.Build.CacheSchema, rescache.SchemaVersion)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		window time.Duration
		want   int
	}{
		{2 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{0, 1},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.window); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.window, got, tc.want)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	cap := 2 * time.Minute
	if got := (Request{}).timeout(cap); got != cap {
		t.Errorf("no timeout_ms: %v, want the server cap %v", got, cap)
	}
	if got := (Request{TimeoutMS: 50}).timeout(cap); got != 50*time.Millisecond {
		t.Errorf("timeout_ms 50: %v, want 50ms", got)
	}
	if got := (Request{TimeoutMS: int(cap/time.Millisecond) * 2}).timeout(cap); got != cap {
		t.Errorf("timeout_ms above the cap: %v, want the cap %v", got, cap)
	}
}

// drainNow shuts a test server down, failing the test if in-flight work
// does not finish promptly.
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline.  Tests use it in place of sleeps so they are fast when the
// condition is already true and loud when it never becomes true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

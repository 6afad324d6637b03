package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/database/storage"
)

func testConfig(tenants ...TenantConfig) *Config {
	return &Config{
		DefaultQuota: DefaultQuota,
		DefaultRate:  Rate{RPS: 1000, Burst: 1000},
		Tenants:      tenants,
	}
}

// stubBackend is an in-process Backend: it admits through the
// controller like the real broker, records submissions, and completes
// jobs only when the test says so — releasing before delivering, in the
// broker's order.
type stubBackend struct {
	adm tasks.Admission
	res chan tasks.JobResult

	mu        sync.Mutex
	submitted []tasks.Job
}

func newStubBackend(adm tasks.Admission) *stubBackend {
	return &stubBackend{adm: adm, res: make(chan tasks.JobResult, 1024)}
}

func (s *stubBackend) TrySubmit(j tasks.Job) error {
	if s.adm != nil {
		if err := s.adm.Admit(j); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.submitted = append(s.submitted, j)
	s.mu.Unlock()
	return nil
}

func (s *stubBackend) Results() <-chan tasks.JobResult { return s.res }

// completeAll finishes every submitted-but-unfinished job and returns
// how many it completed.
func (s *stubBackend) completeAll() int {
	s.mu.Lock()
	batch := s.submitted
	s.submitted = nil
	s.mu.Unlock()
	for _, j := range batch {
		if s.adm != nil {
			s.adm.Release(j)
		}
		s.res <- tasks.JobResult{ID: j.ID, Output: json.RawMessage(`{"ok":true}`)}
	}
	return len(batch)
}

func (s *stubBackend) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.submitted)
}

// testGateway builds a gateway over a stub backend and an in-memory
// store, served by httptest.
func testGateway(t *testing.T, cfg *Config) (*Gateway, *stubBackend, *httptest.Server) {
	t.Helper()
	db := database.MustOpen("")
	t.Cleanup(func() { db.Close() })
	ctrl := NewController(cfg)
	backend := newStubBackend(ctrl)
	g := New(cfg, ctrl, backend, db, nil)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		close(backend.res)
		g.Wait()
	})
	return g, backend, srv
}

func apiReq(t *testing.T, method, url, token string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

func TestAuthFailurePaths(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha"},
		TenantConfig{ID: "old", Token: "tok-old", Expires: "2001-01-01T00:00:00Z"},
	)
	_, _, srv := testGateway(t, cfg)

	cases := []struct {
		name   string
		header string
	}{
		{"missing", ""},
		{"malformed scheme", "Basic abc"},
		{"malformed empty", "Bearer  "},
		{"unknown", "Bearer nope"},
		{"expired", "Bearer tok-old"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest("GET", srv.URL+"/api/launches", nil)
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status = %d, want 401", tc.name, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
			t.Errorf("%s: WWW-Authenticate = %q", tc.name, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", tc.name, ct)
		}
		resp.Body.Close()
	}

	// A valid token still works alongside the failures.
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token: status = %d, want 200", resp.StatusCode)
	}
	if got := decodeBody(t, resp)["tenant"]; got != "alpha" {
		t.Fatalf("whoami tenant = %v, want alpha", got)
	}
}

func TestRateLimiterBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLimiter()
	l.now = func() time.Time { return now }
	rate := Rate{RPS: 1, Burst: 3}

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("t", rate); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := l.allow("t", rate)
	if ok {
		t.Fatal("4th request allowed, want rejection")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s]", wait)
	}

	now = now.Add(time.Second) // refills exactly one token
	if ok, _ := l.allow("t", rate); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.allow("t", rate); ok {
		t.Fatal("second request after single refill allowed")
	}
}

func TestRateLimitHTTP429(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Rate: &Rate{RPS: 0.001, Burst: 2},
	})
	_, _, srv := testGateway(t, cfg)

	for i := 0; i < 2; i++ {
		resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	db := database.MustOpen("")
	defer db.Close()

	a := Namespace(db, "alpha")
	b := Namespace(db, "beta")
	if _, err := a.Collection("runs").InsertOne(database.Doc{"_id": "r1", "who": "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Collection("runs").InsertOne(database.Doc{"_id": "r1", "who": "beta"}); err != nil {
		t.Fatalf("same _id in sibling namespace rejected: %v", err)
	}

	if got := a.Collection("runs").FindOne(database.Doc{"_id": "r1"})["who"]; got != "alpha" {
		t.Fatalf("alpha sees %v", got)
	}
	if got := b.Collection("runs").FindOne(database.Doc{"_id": "r1"})["who"]; got != "beta" {
		t.Fatalf("beta sees %v", got)
	}

	if names := a.CollectionNames(); len(names) != 1 || names[0] != "runs" {
		t.Fatalf("alpha CollectionNames = %v", names)
	}
	if name := a.Collection("runs").Name(); name != "runs" {
		t.Fatalf("namespaced collection Name = %q, want runs", name)
	}
	found := false
	for _, n := range db.CollectionNames() {
		if n == "t.alpha.runs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("underlying store missing t.alpha.runs: %v", db.CollectionNames())
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "tok-alpha"})
	_, _, srv := testGateway(t, cfg)

	cases := []struct {
		name string
		body any
	}{
		{"unknown suite", map[string]any{"suite": "quantum"}},
		{"bad axis name", map[string]any{"suite": "boot", "axes": map[string][]string{"flux": {"x"}}}},
		{"bad axis value", map[string]any{"suite": "boot", "axes": map[string][]string{"cpu": {"Pentium"}}}},
		{"unknown field", map[string]any{"suite": "boot", "bogus": 1}},
		{"negative limit", map[string]any{"suite": "boot", "limit": -1}},
	}
	for _, tc := range cases {
		resp := apiReq(t, "POST", srv.URL+"/api/launches", "tok-alpha", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func submitLaunch(t *testing.T, srv *httptest.Server, token string, limit int) (string, *http.Response) {
	t.Helper()
	resp := apiReq(t, "POST", srv.URL+"/api/launches", token,
		map[string]any{"suite": "boot", "limit": limit})
	if resp.StatusCode != http.StatusAccepted {
		return "", resp
	}
	return decodeBody(t, resp)["launch"].(string), resp
}

func TestQuota429ThenSuccessAfterCapacityFrees(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 2, MaxQueued: 2, Weight: 1},
	})
	g, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 2 }, "2 jobs dispatched")
	if q := g.ctrl.Queued("alpha"); q != 2 {
		t.Fatalf("queued = %d, want 2", q)
	}

	// in-flight(2) + parked(2) + 1 exceeds MaxInFlight+MaxQueued.
	_, resp = submitLaunch(t, srv, "tok-alpha", 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota launch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	body := decodeBody(t, resp)
	if body["reason"] != "queue full" {
		t.Fatalf("reason = %v, want queue full", body["reason"])
	}

	// Drain everything; the parked jobs dispatch as capacity frees.
	for done := 0; done < 4; {
		done += backend.completeAll()
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, func() bool {
		return g.ctrl.InFlight("alpha") == 0 && g.ctrl.Queued("alpha") == 0
	}, "quota fully released")

	// The same submit now clears admission.
	_, resp = submitLaunch(t, srv, "tok-alpha", 1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain launch: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "new job dispatched")
	backend.completeAll()

	// The first launch reached "finished" with all runs done.
	waitFor(t, func() bool {
		resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id, "tok-alpha", nil)
		return decodeBody(t, resp)["status"] == "finished"
	}, "launch finished")
}

func TestCancelDropsParkedJobsOnly(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1},
	})
	_, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "1 job in flight")

	resp = apiReq(t, "DELETE", srv.URL+"/api/launches/"+id, "tok-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if got := decodeBody(t, resp)["canceled"].(float64); got != 3 {
		t.Fatalf("canceled = %v, want 3 (the parked jobs)", got)
	}

	// The in-flight job still completes and is recorded.
	backend.completeAll()
	waitFor(t, func() bool {
		resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id+"/runs", "tok-alpha", nil)
		body := decodeBody(t, resp)
		runs := body["runs"].([]any)
		var done, canceled int
		for _, r := range runs {
			switch r.(map[string]any)["status"] {
			case "done":
				done++
			case "canceled":
				canceled++
			}
		}
		return done == 1 && canceled == 3
	}, "1 done + 3 canceled runs")
}

func TestTenantCannotSeeOthersLaunches(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha"},
		TenantConfig{ID: "beta", Token: "tok-beta"},
	)
	_, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	backend.completeAll()

	resp = apiReq(t, "GET", srv.URL+"/api/launches/"+id, "tok-beta", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: status %d, want 404", resp.StatusCode)
	}
	resp = apiReq(t, "GET", srv.URL+"/api/launches", "tok-beta", nil)
	if launches := decodeBody(t, resp)["launches"]; launches != nil {
		t.Fatalf("beta sees launches: %v", launches)
	}
}

func TestReloadSwapsTokensWithoutDroppingState(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1},
	})
	g, backend, srv := testGateway(t, cfg)

	if _, resp := submitLaunch(t, srv, "tok-alpha", 3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "1 job in flight")

	g.Reload(testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha2",
			Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1}},
		TenantConfig{ID: "gamma", Token: "tok-gamma"},
	))

	if resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("old token after reload: status %d, want 401", resp.StatusCode)
	}
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new token: status %d", resp.StatusCode)
	}
	if resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-gamma", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("added tenant: status %d", resp.StatusCode)
	}

	// Parked work survived the reload and still drains.
	if q := g.ctrl.Queued("alpha"); q != 2 {
		t.Fatalf("queued after reload = %d, want 2", q)
	}
	for done := 0; done < 3; {
		done += backend.completeAll()
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, func() bool { return g.ctrl.InFlight("alpha") == 0 }, "drained after reload")
}

func TestWeightedFairDispatch(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "heavy", Token: "t1",
			Quota: &Quota{MaxInFlight: 100, MaxQueued: 100, Weight: 3}},
		TenantConfig{ID: "light", Token: "t2",
			Quota: &Quota{MaxInFlight: 100, MaxQueued: 100, Weight: 1}},
	)
	ctrl := NewController(cfg)
	var mu sync.Mutex
	var order []string
	ctrl.Bind(func(j tasks.Job) error {
		if err := ctrl.Admit(j); err != nil {
			return err
		}
		mu.Lock()
		order = append(order, TenantOf(j.ID))
		mu.Unlock()
		return nil
	}, nil)

	park := func(tenant string, n int) {
		jobs := make([]tasks.Job, n)
		for i := range jobs {
			jobs[i] = tasks.Job{ID: fmt.Sprintf("g/%s/l0/%d", tenant, i), Kind: "boot"}
		}
		if err := ctrl.Reserve(tenant, jobs); err != nil {
			t.Fatal(err)
		}
		ctrl.Commit(tenant, jobPrefix(tenant, "l0"))
	}
	park("heavy", 40)
	park("light", 40)
	ctrl.Kick()

	mu.Lock()
	first := order[:16]
	mu.Unlock()
	var heavy int
	for _, tn := range first {
		if tn == "heavy" {
			heavy++
		}
	}
	// Weight 3:1 → heavy should take ~12 of the first 16 dispatch slots.
	if heavy < 10 || heavy > 14 {
		t.Fatalf("heavy got %d of first 16 dispatches, want ~12 (3:1 weights); order=%v", heavy, first)
	}
}

func TestConcurrentTenantsAdmissionUnderRace(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "t1",
			Quota: &Quota{MaxInFlight: 4, MaxQueued: 100, Weight: 2}},
		TenantConfig{ID: "beta", Token: "t2",
			Quota: &Quota{MaxInFlight: 3, MaxQueued: 100, Weight: 1}},
	)
	ctrl := NewController(cfg)

	// The backend admits, then "finishes" each job from worker
	// goroutines — releasing concurrently with new reservations.
	type doneJob struct{ j tasks.Job }
	doneCh := make(chan doneJob, 256)
	var inflightMu sync.Mutex
	peak := map[string]int{}
	live := map[string]int{}
	ctrl.Bind(func(j tasks.Job) error {
		if err := ctrl.Admit(j); err != nil {
			return err
		}
		tn := TenantOf(j.ID)
		inflightMu.Lock()
		live[tn]++
		if live[tn] > peak[tn] {
			peak[tn] = live[tn]
		}
		inflightMu.Unlock()
		doneCh <- doneJob{j}
		return nil
	}, nil)

	const perTenant = 50
	var wg sync.WaitGroup
	for _, tn := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				j := tasks.Job{ID: fmt.Sprintf("g/%s/l0/%d", tn, i), Kind: "boot"}
				if err := ctrl.Reserve(tn, []tasks.Job{j}); err != nil {
					t.Errorf("reserve %s/%d: %v", tn, i, err)
					return
				}
				ctrl.Commit(tn, jobPrefix(tn, "l0"))
				ctrl.Kick()
			}
		}(tn)
	}

	finished := map[string]int{}
	var finMu sync.Mutex
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for d := range doneCh {
				tn := TenantOf(d.j.ID)
				inflightMu.Lock()
				live[tn]--
				inflightMu.Unlock()
				finMu.Lock()
				finished[tn]++
				finMu.Unlock()
				ctrl.Release(d.j)
			}
		}()
	}

	wg.Wait()
	waitFor(t, func() bool {
		finMu.Lock()
		defer finMu.Unlock()
		return finished["alpha"] == perTenant && finished["beta"] == perTenant
	}, "all jobs finished")
	close(doneCh)
	workers.Wait()

	// Admission must have held every tenant under its in-flight cap the
	// whole time, concurrently.
	if peak["alpha"] > 4 {
		t.Fatalf("alpha peak in-flight = %d, cap 4", peak["alpha"])
	}
	if peak["beta"] > 3 {
		t.Fatalf("beta peak in-flight = %d, cap 3", peak["beta"])
	}
}

func TestAdmitIdempotentPerJobID(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "t",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 0, Weight: 1}})
	ctrl := NewController(cfg)
	j := tasks.Job{ID: "g/alpha/l0/0"}
	if err := ctrl.Admit(j); err != nil {
		t.Fatal(err)
	}
	// The durable queue can offer the same ID again; it must not consume
	// a second slot or be rejected.
	if err := ctrl.Admit(j); err != nil {
		t.Fatalf("re-admit of same ID: %v", err)
	}
	if got := ctrl.InFlight("alpha"); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	ctrl.Release(j)
	ctrl.Release(j) // double release must not underflow
	if got := ctrl.InFlight("alpha"); got != 0 {
		t.Fatalf("in-flight after release = %d, want 0", got)
	}
	// Untracked (in-process) jobs bypass quota entirely.
	if err := ctrl.Admit(tasks.Job{ID: "plain-job"}); err != nil {
		t.Fatalf("in-process job gated: %v", err)
	}
}

func TestConfigEnvOverlayAndValidation(t *testing.T) {
	cfg := &Config{Tenants: []TenantConfig{{ID: "filed", Token: "from-file"}}}
	cfg.applyEnv([]string{
		"GEM5ART_GATEWAY_TOKEN_FILED=overridden",
		"GEM5ART_GATEWAY_TOKEN_ENVONLY=fresh",
		"UNRELATED=x",
	})
	if cfg.Tenants[0].Token != "overridden" {
		t.Fatalf("file token not overridden: %q", cfg.Tenants[0].Token)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[1].ID != "envonly" {
		t.Fatalf("env tenant not added: %+v", cfg.Tenants)
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}

	bad := &Config{Tenants: []TenantConfig{{ID: "No/Slash", Token: "x"}}}
	if err := bad.validate(); err == nil {
		t.Fatal("invalid tenant id accepted")
	}
	dup := &Config{Tenants: []TenantConfig{{ID: "a", Token: "x"}, {ID: "a", Token: "y"}}}
	if err := dup.validate(); err == nil {
		t.Fatal("duplicate tenant id accepted")
	}
}

func TestParseQuotaAndRate(t *testing.T) {
	q, err := ParseQuota("in-flight=5,queued=10,weight=2")
	if err != nil {
		t.Fatal(err)
	}
	if q != (Quota{MaxInFlight: 5, MaxQueued: 10, Weight: 2}) {
		t.Fatalf("quota = %+v", q)
	}
	if _, err := ParseQuota("bogus=1"); err == nil {
		t.Fatal("unknown quota key accepted")
	}
	r, err := ParseRate("rps=2.5,burst=7")
	if err != nil {
		t.Fatal(err)
	}
	if r.RPS != 2.5 || r.Burst != 7 {
		t.Fatalf("rate = %+v", r)
	}
	if _, err := ParseRate("rps=fast"); err == nil {
		t.Fatal("bad rate value accepted")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// syncBackend completes every job inside TrySubmit, releasing before
// delivering like the broker, so a dispatch finishes before the
// dispatcher's caller regains control.
type syncBackend struct {
	adm       tasks.Admission
	res       chan tasks.JobResult
	completed atomic.Int64
}

func (b *syncBackend) TrySubmit(j tasks.Job) error {
	if err := b.adm.Admit(j); err != nil {
		return err
	}
	b.adm.Release(j)
	b.completed.Add(1)
	b.res <- tasks.JobResult{ID: j.ID, Output: json.RawMessage(`{"ok":true}`)}
	return nil
}

func (b *syncBackend) Results() <-chan tasks.JobResult { return b.res }

// kickingStore calls onLaunch right after a launch document is written,
// between the launch and run inserts of a submit, and counts the result
// pump's run updates.
type kickingStore struct {
	storage.Store
	onLaunch   func()
	runUpdates atomic.Int64
}

func (s *kickingStore) Collection(name string) storage.Collection {
	c := s.Store.Collection(name)
	switch {
	case strings.HasSuffix(name, ".launches"):
		return launchInsertHook{Collection: c, s: s}
	case strings.HasSuffix(name, ".runs"):
		return runUpdateCounter{Collection: c, s: s}
	}
	return c
}

type launchInsertHook struct {
	storage.Collection
	s *kickingStore
}

func (c launchInsertHook) InsertOne(d storage.Doc) (string, error) {
	id, err := c.Collection.InsertOne(d)
	if err == nil {
		c.s.onLaunch()
	}
	return id, err
}

type runUpdateCounter struct {
	storage.Collection
	s *kickingStore
}

func (c runUpdateCounter) UpdateOne(filter, set storage.Doc) (bool, error) {
	c.s.runUpdates.Add(1)
	return c.Collection.UpdateOne(filter, set)
}

// TestReservedJobsWaitForRunDocuments is the Reserve-before-journal
// race: a Kick that lands while a submit is still writing its launch
// and run documents (from a Release or another tenant's submit) must
// not dispatch the new launch's jobs. Otherwise their results reach the
// pump before the run documents exist, match nothing, and the launch
// stays "running" forever.
func TestReservedJobsWaitForRunDocuments(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 4, MaxQueued: 4, Weight: 1},
	})
	db := database.MustOpen("")
	t.Cleanup(func() { db.Close() })
	ctrl := NewController(cfg)
	backend := &syncBackend{adm: ctrl, res: make(chan tasks.JobResult, 64)}
	store := &kickingStore{Store: db}
	store.onLaunch = func() {
		ctrl.Kick()
		// Let the pump apply whatever that Kick completed before the
		// submit goes on to write the run documents.
		deadline := time.Now().Add(2 * time.Second)
		for store.runUpdates.Load() < backend.completed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	g := New(cfg, ctrl, backend, store, nil)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		close(backend.res)
		g.Wait()
	})

	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool {
		resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id, "tok-alpha", nil)
		return decodeBody(t, resp)["status"] == "finished"
	}, "launch finished")
	resp = apiReq(t, "GET", srv.URL+"/api/launches/"+id+"/runs", "tok-alpha", nil)
	runs := decodeBody(t, resp)["runs"].([]any)
	if len(runs) != 4 {
		t.Fatalf("%d runs, want 4", len(runs))
	}
	for _, r := range runs {
		if st := r.(map[string]any)["status"]; st != "done" {
			t.Fatalf("run status %v, want done: %v", st, r)
		}
	}
}

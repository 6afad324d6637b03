package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/database/storage"
	"gem5art/internal/gateway"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
)

const (
	benchTenant = "bench"
	benchToken  = "perfbench-token"
	// pollInterval is how long a waiting client sleeps between status
	// polls, like gem5art submit -wait with -poll 5ms.
	pollInterval = 5 * time.Millisecond
	// launchDeadline is how long a client waits for its launch to
	// finish before counting it failed and moving on.
	launchDeadline = time.Second
)

// serviceWorkload is a closed loop of clients launching boot sweeps
// through the gateway to a broker with a journaled queue and a TCP
// worker. A cycle starts the service (the timed set-up) and runs rounds;
// each round launches the 48 (cpu, mem, cores) blocks of the Figure 8
// domain in seeded order, each block a 10-cell launch over the kernels
// and boot types, so a round covers the 480-cell matrix once.
type serviceWorkload struct {
	rounds  int
	clients int
	// expect memoizes direct kernel.Boot outputs by cell, for checking
	// job outputs.
	expect map[kernel.Spec]bootOutput
}

var serviceLaunch = &serviceWorkload{rounds: 2, clients: 2}

// bootOutput is the boot job's output as the gateway records it.
type bootOutput struct {
	Outcome    string  `json:"outcome"`
	SimSeconds float64 `json:"sim_seconds"`
	Insts      float64 `json:"insts"`
}

// bootPayload is the boot suite's job payload.
type bootPayload struct {
	Kernel string `json:"kernel"`
	CPU    string `json:"cpu"`
	Mem    string `json:"mem"`
	Cores  int    `json:"cores"`
	Boot   string `json:"boot"`
}

func (p bootPayload) spec() kernel.Spec {
	return kernel.Spec{Kernel: kernel.Version(p.Kernel), CPU: cpu.Model(p.CPU),
		Mem: p.Mem, Cores: p.Cores, Boot: kernel.BootType(p.Boot)}
}

// service is one running control plane: gateway over HTTP, broker
// with its queue in a journaled store, one worker.
type service struct {
	db       storage.Store
	ts       *tracedStore
	broker   *brokerBackend
	worker   *tasks.Worker
	gw       *gateway.Gateway
	srv      *http.Server
	srvDone  chan struct{}
	base     string
	client   *http.Client
	simNanos atomic.Int64
}

func startService(dir string, capacity int, t *Tracer) (s *service, err error) {
	db, err := database.Open(dir)
	if err != nil {
		return nil, err
	}
	s = &service{db: db, srvDone: make(chan struct{})}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	store := db
	if t != nil {
		s.ts = newTracedStore(db, t)
		store = s.ts
	}
	cfg := &gateway.Config{
		DefaultQuota: gateway.DefaultQuota,
		// The edge limiter must not throttle a client polling every few
		// milliseconds; admission quotas still apply.
		DefaultRate: gateway.Rate{RPS: 1e6, Burst: 1 << 20},
		Tenants:     []gateway.TenantConfig{{ID: benchTenant, Token: benchToken}},
	}
	ctrl := gateway.NewController(cfg)
	broker, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{DB: store, Admission: ctrl})
	if err != nil {
		return s, err
	}
	s.broker = newBrokerBackend(broker)
	s.gw = gateway.New(cfg, ctrl, s.broker, store, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(s.srvDone)
		return s, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.gw.Handler()}
	go func() {
		defer close(s.srvDone)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	s.worker, err = tasks.NewWorkerWithOptions(s.broker.Addr(), tasks.WorkerOptions{
		Capacity: capacity,
		Handlers: map[string]tasks.JobHandler{"boot": s.timedHandler(t, s.bootJob(t))},
		ID:       "perfbench-worker",
	})
	if err != nil {
		return s, err
	}
	// Wait in short sleeps until the worker has registered. On one
	// processor a goroutine spinning with runtime.Gosched keeps the
	// scheduler from polling the network, which delays the worker's
	// connection by up to the runtime monitor's period.
	for start := time.Now(); s.broker.State().Workers == 0; time.Sleep(20 * time.Microsecond) {
		if time.Since(start) > 5*time.Second {
			return s, errors.New("worker did not register with the broker")
		}
	}
	return s, nil
}

// brokerBackend hands the gateway the broker's results through a
// channel that closes on stop. tasks.Broker.Close never closes its own
// result channel, so Gateway.Wait would never return and the parked
// result pump would keep each cycle's gateway, broker and store alive.
type brokerBackend struct {
	*tasks.Broker
	out  chan tasks.JobResult
	quit chan struct{}
	done chan struct{}
}

func newBrokerBackend(b *tasks.Broker) *brokerBackend {
	bb := &brokerBackend{Broker: b, out: make(chan tasks.JobResult),
		quit: make(chan struct{}), done: make(chan struct{})}
	go bb.forward()
	return bb
}

func (bb *brokerBackend) Results() <-chan tasks.JobResult { return bb.out }

func (bb *brokerBackend) forward() {
	defer close(bb.done)
	defer close(bb.out)
	in := bb.Broker.Results()
	for {
		select {
		case r := <-in:
			select {
			case bb.out <- r:
			case <-bb.quit:
				return
			}
		case <-bb.quit:
			return
		}
	}
}

// closeResults ends the result stream and waits for the forwarder.
func (bb *brokerBackend) closeResults() {
	close(bb.quit)
	<-bb.done
}

// stop shuts the service down and waits for each part to end.
func (s *service) stop() {
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.srvDone
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.worker != nil {
		s.worker.Close()
	}
	if s.broker != nil {
		s.broker.Close()
		s.broker.closeResults()
	}
	if s.gw != nil {
		s.gw.Wait()
	}
	_ = s.db.Close()
}

// timedHandler is the tasks.JobHandler decorator: one tasks.handler
// span per job.
func (s *service) timedHandler(t *Tracer, h func(json.RawMessage, uint64) (any, error)) tasks.JobHandler {
	return func(payload json.RawMessage) (any, error) {
		sp := t.Begin("tasks.handler", "worker", 0)
		out, err := h(payload, sp.ID())
		sp.End(0, nil)
		return out, err
	}
}

// bootJob is the Figure 8 boot handler gem5worker runs, with the
// simulator call timed.
func (s *service) bootJob(t *Tracer) func(json.RawMessage, uint64) (any, error) {
	return func(payload json.RawMessage, parent uint64) (any, error) {
		var p bootPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, fmt.Errorf("bad boot payload: %w", err)
		}
		c := p.spec()
		start := time.Now()
		sp := t.Begin("sim.boot", "worker", parent)
		res := kernel.Boot(c, 0)
		sp.End(res.Insts, map[string]string{"cpu": string(c.CPU), "mem": c.Mem})
		s.simNanos.Add(int64(time.Since(start)))
		return map[string]any{
			"outcome":     string(res.Outcome),
			"sim_seconds": res.SimTicks.Seconds(),
			"insts":       res.Insts,
		}, nil
	}
}

// call performs one authenticated JSON request and decodes the reply.
func (s *service) call(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+benchToken)
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// launchRec is one client launch and how it went.
type launchRec struct {
	block    kernel.Spec // cpu, mem and cores of the launch's cells
	id       string
	latency  time.Duration
	finished bool
	rejected bool
	err      error
}

// launchAndWait submits one launch and polls until it is finished or
// the deadline passes.
func (s *service) launchAndWait(block kernel.Spec, spec gateway.LaunchSpec, t *Tracer, parent uint64) *launchRec {
	rec := &launchRec{block: block}
	ls := t.Begin("client.launch", "", parent)
	defer func() { ls.End(0, nil) }()
	start := time.Now()
	var accepted struct {
		Launch string `json:"launch"`
	}
	sp := t.Begin("gateway.submit", "", ls.ID())
	code, err := s.call("POST", "/api/launches", spec, &accepted)
	sp.SetTrace(accepted.Launch)
	sp.End(0, nil)
	switch {
	case err != nil:
		rec.err = err
		return rec
	case code == http.StatusTooManyRequests:
		rec.rejected = true
		return rec
	case code != http.StatusAccepted:
		rec.err = fmt.Errorf("submit: HTTP %d", code)
		return rec
	}
	rec.id = accepted.Launch
	ls.SetTrace(rec.id)
	for {
		time.Sleep(pollInterval)
		var st struct {
			Status string `json:"status"`
		}
		pp := t.Begin("gateway.poll", rec.id, ls.ID())
		code, err := s.call("GET", "/api/launches/"+rec.id, nil, &st)
		pp.End(0, nil)
		if err == nil && code == http.StatusOK && st.Status == "finished" {
			rec.finished = true
			rec.latency = time.Since(start)
			return rec
		}
		if time.Since(start) > launchDeadline {
			if err != nil {
				rec.err = err
			}
			return rec
		}
	}
}

// blocks returns the Figure 8 domain as 48 launches of 10 cells.
func blocks() []kernel.Spec {
	var out []kernel.Spec
	for _, c := range cpu.AllModels {
		for _, m := range kernel.MemSystems {
			for _, n := range kernel.CoreCounts {
				out = append(out, kernel.Spec{CPU: c, Mem: m, Cores: n})
			}
		}
	}
	return out
}

// launchSpec renders a block as a gateway launch, with the kernel and
// boot-type axes in seeded order.
func launchSpec(b kernel.Spec, rng *rand.Rand) gateway.LaunchSpec {
	var ks, bs []string
	for _, k := range kernel.BootKernels {
		ks = append(ks, string(k))
	}
	for _, bt := range kernel.BootTypes {
		bs = append(bs, string(bt))
	}
	return gateway.LaunchSpec{
		Name:  fmt.Sprintf("%s-%s-%dc", b.CPU, b.Mem, b.Cores),
		Suite: "boot",
		Axes: map[string][]string{
			"kernel": shuffle(rng, ks),
			"cpu":    {string(b.CPU)},
			"mem":    {b.Mem},
			"cores":  {fmt.Sprint(b.Cores)},
			"boot":   shuffle(rng, bs),
		},
	}
}

// provision is the timed set-up: open the journaled store, start the
// broker, the gateway's HTTP server and the worker.
func (w *serviceWorkload) provision(st *runState, t *Tracer) (*service, error) {
	dir := st.scratchDir()
	t0 := time.Now()
	svc, err := startService(dir, st.workers, t)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	st.addSetup(time.Since(t0))
	return svc, nil
}

func (w *serviceWorkload) setupOnly(st *runState) error {
	svc, err := w.provision(st, nil)
	if err != nil {
		return err
	}
	svc.stop()
	return nil
}

func (w *serviceWorkload) cycle(st *runState, t *Tracer) error {
	svc, err := w.provision(st, t)
	if err != nil {
		return err
	}
	defer svc.stop()

	var all []*launchRec
	for round := 0; round < w.rounds; round++ {
		kind := passCold
		if round > 0 {
			kind = passWarm
		}
		bs := shuffle(st.rng, blocks())
		specs := make([]gateway.LaunchSpec, len(bs))
		for i, b := range bs {
			specs[i] = launchSpec(b, st.rng)
		}
		trace := fmt.Sprintf("%s-%d", kind, st.passes)
		ps := t.Begin("bench.pass", trace, 0)
		if svc.ts != nil {
			svc.ts.under(trace, ps.ID())
		}
		settle()
		mem := st.memBefore(t)
		sim0 := svc.simNanos.Load()
		recs := make([]*launchRec, len(specs))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
					recs[i] = svc.launchAndWait(bs[i], specs[i], t, ps.ID())
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		ps.End(0, map[string]string{"kind": kind})
		st.memAfter(kind, mem)
		simHost := time.Duration(svc.simNanos.Load() - sim0)

		var lat []float64
		done := 0
		for _, r := range recs {
			st.attempted++
			if r.finished {
				done++
				lat = append(lat, float64(r.latency)/float64(time.Millisecond))
				continue
			}
			// A launch that failed or missed the deadline counts as
			// missing any latency limit: it enters the latency samples
			// at the deadline, a lower bound of its real latency.
			st.failed++
			lat = append(lat, float64(launchDeadline)/float64(time.Millisecond))
			if r.rejected && t != nil {
				st.rejected++
			}
		}
		if t != nil {
			// A round runs the Figure 8 matrix once on the worker.
			st.unit("use-case-2-boot")
			st.unit("round")
		}
		st.addOps(kind, wall, lat, done, t != nil, simHost)
		all = append(all, recs...)
	}
	w.verify(st, svc, t, all)
	return nil
}

// verify checks, after the timed rounds, that every finished launch ran
// exactly its 10 cells and that each job's output equals a direct
// kernel.Boot of its cell. It also counts broker executions per job
// and reports launches that missed the deadline.
func (w *serviceWorkload) verify(st *runState, svc *service, t *Tracer, recs []*launchRec) {
	if w.expect == nil {
		w.expect = map[kernel.Spec]bootOutput{}
	}
	missed, executed, lost := 0, 0, 0
	for _, r := range recs {
		if r.id == "" {
			if r.err != nil {
				fmt.Printf("launch of %s failed: %v\n", r.block, r.err)
			}
			continue
		}
		if t != nil {
			for i := 0; i < 10; i++ {
				st.execs += svc.broker.Executions(fmt.Sprintf("g/%s/%s/%d", benchTenant, r.id, i))
				st.jobs++
			}
		}
		if !r.finished {
			missed++
			if svc.broker.Executions(fmt.Sprintf("g/%s/%s/0", benchTenant, r.id)) > 0 {
				executed++
			}
			continue
		}
		var got struct {
			Runs []struct {
				Status string      `json:"status"`
				Params bootPayload `json:"params"`
				Output bootOutput  `json:"output"`
			} `json:"runs"`
		}
		if code, err := svc.call("GET", "/api/launches/"+r.id+"/runs", nil, &got); err != nil || code != http.StatusOK {
			st.fail("runs of launch %s: HTTP %d, %v", r.id, code, err)
			continue
		}
		if len(got.Runs) != len(kernel.BootKernels)*len(kernel.BootTypes) {
			st.fail("launch %s has %d runs, want %d", r.id, len(got.Runs), len(kernel.BootKernels)*len(kernel.BootTypes))
		}
		seen := map[kernel.Spec]bool{}
		unrecorded := 0
		for _, run := range got.Runs {
			c := run.Params.spec()
			if c.CPU != r.block.CPU || c.Mem != r.block.Mem || c.Cores != r.block.Cores || seen[c] {
				st.fail("launch %s ran unexpected cell %s", r.id, c)
				continue
			}
			seen[c] = true
			want, ok := w.expect[c]
			if !ok {
				res := kernel.Boot(c, 0)
				want = bootOutput{string(res.Outcome), res.SimTicks.Seconds(), float64(res.Insts)}
				w.expect[c] = want
			}
			if run.Status != "done" {
				unrecorded++
				continue
			}
			if run.Output != want {
				st.fail("launch %s cell %s: output %+v, direct boot gives %+v", r.id, c, run.Output, want)
			}
		}
		if unrecorded > 0 {
			// The launch reported finished without the results of some of
			// its runs: the service lost them, so the launch failed.
			lost++
			st.failed++
		}
	}
	if missed > 0 || lost > 0 {
		fmt.Printf("%d launches missed the %v deadline (%d of them with their jobs executed); "+
			"%d launches finished with runs never recorded done\n", missed, launchDeadline, executed, lost)
	}
}

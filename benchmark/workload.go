package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/cdr"
	"mead/internal/client"
	"mead/internal/experiment"
	"mead/internal/faultinject"
	"mead/internal/ftmgr"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
	"mead/internal/replica"
	"mead/internal/telemetry"
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// scheme is the recovery scheme every replica and client runs.
	scheme ftmgr.Scheme
	// callers is the number of concurrent closed-loop callers. MEAD
	// callers are client strategies with private connections; the others
	// share one pooled ORB connection.
	callers int
	// identities is the at-most-once client-id population (0: one per
	// caller). Each identity belongs to exactly one caller.
	identities int
	// leak arms the Weibull memory-leak fault on every replica.
	leak bool
	// durable keeps each replica's op log and checkpoints on disk.
	durable bool
	// migrations is how many planned proactive migrations the fail-over
	// phase triggers after the timed window (0: fail-overs come from the
	// leak, inside the window).
	migrations int
}

var workloads = []workload{
	{
		name:    "failover-mead",
		why:     "the paper's Table 1: MEAD hand-offs under the Weibull leak, two clients with private connections",
		scheme:  ftmgr.MeadMessage,
		callers: 2,
		leak:    true,
	},
	{
		name:       "steady-pool",
		why:        "64 callers on one pooled LOCATION_FORWARD connection, no faults: codec, ORB pool and dispatch cost",
		scheme:     ftmgr.LocationForward,
		callers:    64,
		migrations: 360,
	},
	{
		name:       "durable-fanin",
		why:        "steady-pool with durable replicas and 5000 client identities: op log, snapshot checkpoints over GCS, replay",
		scheme:     ftmgr.LocationForward,
		callers:    64,
		identities: 5000,
		durable:    true,
		migrations: 360,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Deployment settings: the mead-experiment -quick configuration.
const (
	leakTick        = 2 * time.Millisecond
	leakChunkUnit   = 16
	restartDelay    = 25 * time.Millisecond
	proactiveDelay  = 5 * time.Millisecond
	checkpointEvery = 10 * time.Millisecond
	queryTimeout    = 20 * time.Millisecond
	replicas        = 3

	// warmCalls is each caller's warm-up before timing (durable-fanin also
	// touches every identity once).
	warmCalls = 50
	// durableCheckpointBytes is the op-log growth that triggers a durable
	// checkpoint (snapshot write, fsync, log truncation).
	durableCheckpointBytes = 4 << 20
	// restarts and restartMinTime bound the kill-all / cold-restart cycles
	// that end a run from below; restart_s is their trimmed mean. A 3 ms
	// in-memory restart needs hundreds of cycles to average out the boot's
	// millisecond polling; a 40 ms durable one reaches 1 s in 25.
	restarts       = 25
	restartMinTime = time.Second
	// durableCheckpointEvery is durable-fanin's warm-passive period. At
	// the 50 ms default, the two backups' fsyncs (one per received
	// snapshot) stall the run for seconds at a time on a VM disk.
	durableCheckpointEvery = 200 * time.Millisecond
	// foCallers is the number of private-connection clients that ride the
	// planned migrations of the pooled workloads' fail-over phase.
	foCallers = 2
	// chunkMigrations is how many consecutive migrations of the fail-over
	// phase share one chunk (about a second); failover_p50_us is the median
	// over the chunks of each chunk's median, so a burst of outside load
	// during part of the phase moves it little.
	chunkMigrations = 20
	// phaseTimeout bounds every wait outside the timed window.
	phaseTimeout = 10 * time.Second
)

func (w workload) scenario(seed int64, stateDir string) experiment.Scenario {
	sc := experiment.Scenario{
		Scheme:          w.scheme,
		Replicas:        replicas,
		InjectFault:     w.leak,
		Fault:           faultinject.Config{Tick: leakTick, ChunkUnit: leakChunkUnit},
		RestartDelay:    restartDelay,
		ProactiveDelay:  proactiveDelay,
		CheckpointEvery: checkpointEvery,
		QueryTimeout:    queryTimeout,
		Seed:            seed,
	}
	if !w.leak {
		// The pooled workloads keep the replicas' default warm-passive
		// period: at 10 ms, shipping durable-fanin's dedup table dominates
		// the processor and the run-to-run spread.
		sc.CheckpointEvery = 0
	}
	if w.durable {
		// Every backup fsyncs each snapshot it receives, so the period
		// sets the fsync rate; see durableCheckpointEvery.
		sc.CheckpointEvery = durableCheckpointEvery
		sc.StateDir = stateDir
		sc.DurableCheckpointBytes = durableCheckpointBytes
	}
	return sc
}

// identity is one at-most-once client id and its sequence space.
type identity struct {
	name string
	seq  uint64
}

// caller is one closed-loop invoker and everything it measured.
type caller struct {
	idx   int
	strat client.Strategy // MEAD: a client strategy with its own connection
	ref   *orb.ObjectRef  // pooled: this caller's reference on the shared ORB
	ids   []*identity
	rng   *rand.Rand
	cur   *identity
	slot  *invSlot

	// Last reply.
	counter uint64
	replica string
	enc     func(*cdr.Encoder)
	dec     func(*cdr.Decoder) error

	// Running state for the output checks.
	lastCounter uint64
	regressions int

	// Timed-window tallies.
	attempted, ok, failed int
	slices                []int   // successful calls per slice of the window
	failover              []int64 // hand-off latency, ns
	selfNS                []int64 // traced: invocation minus wire coverage
	errs                  []error
}

func newPooledCaller(idx int, ids []*identity, seed int64) *caller {
	c := &caller{idx: idx, ids: ids, rng: rand.New(rand.NewSource(seed*7919 + int64(idx))), slot: &invSlot{}}
	c.enc = func(e *cdr.Encoder) {
		e.WriteString(c.cur.name)
		e.WriteULongLong(c.cur.seq)
	}
	c.dec = func(d *cdr.Decoder) error {
		if _, err := d.ReadLongLong(); err != nil {
			return err
		}
		n, err := d.ReadULongLong()
		if err != nil {
			return err
		}
		name, err := d.ReadString()
		if err != nil {
			return err
		}
		c.counter, c.replica = n, name
		return nil
	}
	return c
}

// call performs one invocation. handoff reports that it crossed a
// fail-over (MEAD: Outcome.Failover; pooled: a LOCATION_FORWARD followed).
// visible reports an exception or failure the application saw.
func (c *caller) call(tr *tracer) (lat int64, handoff, visible bool, err error) {
	var inv uint64
	var t0 int64
	if tr != nil {
		inv = tr.newID()
		c.slot.begin(inv)
		t0 = tr.now()
	}
	start := time.Now()
	if c.strat != nil {
		out := c.strat.Invoke()
		lat = int64(time.Since(start))
		err, handoff = out.Err, out.Failover
		visible = err != nil || len(out.Exceptions) > 0
		c.counter, c.replica = out.Counter, out.Replica
	} else {
		c.cur = c.ids[0]
		if len(c.ids) > 1 {
			c.cur = c.ids[c.rng.Intn(len(c.ids))]
		}
		c.cur.seq++
		before := c.ref.Stats().Forwards
		err = c.ref.Invoke("time_of_day", c.enc, c.dec)
		lat = int64(time.Since(start))
		handoff = c.ref.Stats().Forwards != before
		visible = err != nil
	}
	if tr != nil {
		root := span{Trace: inv, ID: inv, Name: c.invokeSpanName(), Start: t0, End: tr.now()}
		wires := c.slot.end()
		c.selfNS = append(c.selfNS, selfTime(root, wires))
		tr.keep(append(wires, root)...)
	}
	return lat, handoff, visible, err
}

func (c *caller) invokeSpanName() string {
	if c.strat != nil {
		return "client.Strategy.Invoke"
	}
	return "orb.ObjectRef.Invoke"
}

// session is one booted deployment with its callers.
type session struct {
	w       workload
	seed    int64
	dir     string // durable state directory ("" in memory)
	d       *experiment.Deployment
	corb    *orb.ClientORB // pooled workloads' shared client ORB
	callers []*caller
	wire    *wireStats // nil when not traced
	tr      *tracer
	route   map[string]*invSlot
	warm    atomic.Int64 // successful warm-up calls
}

// identities draws the workload's client-id population from the seed and
// deals it to the callers round-robin.
func (w workload) drawIdentities(seed int64) [][]*identity {
	rng := rand.New(rand.NewSource(seed))
	n := w.identities
	if n == 0 {
		n = w.callers
	}
	out := make([][]*identity, w.callers)
	seen := make(map[string]bool, n)
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("client-%016x", rng.Uint64())
		for seen[name] {
			name = fmt.Sprintf("client-%016x", rng.Uint64())
		}
		seen[name] = true
		out[k%w.callers] = append(out[k%w.callers], &identity{name: name})
	}
	return out
}

// boot brings up a deployment and its callers and warms them up: the span
// setup_s measures.
func boot(w workload, seed int64, dir string, tr *tracer) (*session, error) {
	s := &session{w: w, seed: seed, dir: dir, tr: tr, route: make(map[string]*invSlot)}
	if tr != nil {
		s.wire = &wireStats{tr: tr, route: func(id string) *invSlot { return s.route[id] }}
	}
	d, err := experiment.NewDeployment(w.scenario(seed, dir))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	s.d = d
	if err := s.attach(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) dialer() orb.DialFunc {
	if s.wire == nil {
		return nil
	}
	return s.wire.dial
}

// attach builds the callers.
func (s *session) attach() error {
	w := s.w
	if w.scheme == ftmgr.MeadMessage {
		for i := 0; i < w.callers; i++ {
			id := fmt.Sprintf("mead-%d-%d", s.seed, i)
			strat, err := client.New(client.Config{
				Scheme:    w.scheme,
				Service:   s.d.Service(),
				NamesAddr: s.d.NamesAddr(),
				Dial:      s.dialer(),
				Telemetry: s.d.Telemetry(),
				ClientID:  id,
			})
			if err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
			c := &caller{idx: i, strat: strat, ids: []*identity{{name: id}}, slot: &invSlot{}}
			s.route[id] = c.slot
			s.callers = append(s.callers, c)
		}
		return nil
	}
	ior, err := primaryIOR(s.d)
	if err != nil {
		return err
	}
	opts := []orb.ClientOption{orb.WithConnectionPool(), orb.WithTelemetry(s.d.Telemetry())}
	if dial := s.dialer(); dial != nil {
		opts = append(opts, orb.WithDialer(dial))
	}
	s.corb = orb.NewClient(opts...)
	for i, ids := range w.drawIdentities(s.seed) {
		c := newPooledCaller(i, ids, s.seed)
		c.ref = s.corb.Object(ior)
		for _, id := range ids {
			s.route[id.name] = c.slot
		}
		s.callers = append(s.callers, c)
	}
	return nil
}

// primaryIOR resolves the group primary's binding in the Naming Service.
// The bindings are listed in registration order, which after a cold
// restart need not match the group's view order, so it matches by name.
func primaryIOR(d *experiment.Deployment) (giop.IOR, error) {
	entries, err := namesvc.NewClient(d.NamesAddr()).List(d.Service() + "/")
	if err != nil {
		return giop.IOR{}, fmt.Errorf("resolve: %w", err)
	}
	prim := d.Service() + "/" + groupPrimary(d)
	for _, e := range entries {
		if e.Name == prim {
			return e.IOR, nil
		}
	}
	return giop.IOR{}, fmt.Errorf("resolve: primary %q is not bound", prim)
}

// warmUp makes warmCalls calls per caller and, with an identity
// population, touches every identity once, so the dedup table starts at its
// steady size.
func (s *session) warmUp() error {
	return s.each(func(c *caller) error {
		if len(c.ids) > 1 {
			for _, id := range c.ids {
				c.cur = id
				id.seq++
				if err := c.ref.Invoke("time_of_day", c.enc, c.dec); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
				c.lastCounter = c.counter
				s.warm.Add(1)
			}
		}
		for i := 0; i < warmCalls; i++ {
			_, _, _, err := c.call(nil)
			if err != nil && s.w.scheme != ftmgr.MeadMessage {
				return fmt.Errorf("warm-up: %w", err)
			}
			if err == nil {
				c.lastCounter = c.counter
				s.warm.Add(1)
			}
		}
		return nil
	})
}

// each runs fn on every caller concurrently and returns their errors joined.
func (s *session) each(fn func(*caller) error) error {
	errs := make([]error, len(s.callers))
	var wg sync.WaitGroup
	for i, c := range s.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window runs every caller in a closed loop for d, split into one equal
// slice per histogram; at each slice boundary it calls mark (the caller's
// snapshot of process CPU and GCS traffic). Each completed call is tallied
// in the slice in which it ended; the latency of calls that crossed no
// fail-over goes to that slice's histogram.
func (s *session) window(d time.Duration, hists []*latHist, mark func()) time.Duration {
	slices := len(hists)
	for _, c := range s.callers {
		c.slices = make([]int, slices)
	}
	mark()
	start := time.Now()
	deadline := start.Add(d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.each(func(c *caller) error {
			for time.Now().Before(deadline) {
				lat, handoff, visible, err := c.call(s.tr)
				k := int(time.Since(start) * time.Duration(slices) / d)
				if k >= slices {
					k = slices - 1
				}
				c.attempted++
				if visible {
					c.failed++
				}
				if err != nil {
					if len(c.errs) < 4 {
						c.errs = append(c.errs, err)
					}
					continue
				}
				c.ok++
				c.slices[k]++
				if handoff {
					c.failover = append(c.failover, lat)
				} else {
					hists[k].observe(lat)
				}
				if c.counter <= c.lastCounter {
					c.regressions++
				}
				c.lastCounter = c.counter
			}
			return nil
		})
	}()
	for k := 1; k <= slices; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(slices))))
		mark()
	}
	<-done
	return time.Since(start)
}

// liveReplicas returns the running replica instances.
func liveReplicas(d *experiment.Deployment) []*replica.Replica {
	var out []*replica.Replica
	for _, r := range d.Replicas() {
		select {
		case <-r.Done():
		default:
			out = append(out, r)
		}
	}
	return out
}

func liveReplica(d *experiment.Deployment, name string) *replica.Replica {
	for _, r := range liveReplicas(d) {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// failoverPhase measures LOCATION_FORWARD hand-offs after the timed window:
// it closes the pooled callers (a pooled connection neither follows a
// migration nor lets the migrating replica go quiescent), attaches
// foCallers client strategies with private connections, and triggers
// w.migrations planned proactive migrations of the primary by consuming its
// resource budget past the migrate threshold. It returns the latency of
// every invocation that followed a LOCATION_FORWARD, in chunks of
// chunkMigrations migrations, and the calls that failed.
func (s *session) failoverPhase() (chunks [][]int64, failed int, err error) {
	s.closeCallers()
	callers := make([]*caller, foCallers)
	for i := range callers {
		strat, err := client.New(client.Config{
			Scheme:    s.w.scheme,
			Service:   s.d.Service(),
			NamesAddr: s.d.NamesAddr(),
			Telemetry: s.d.Telemetry(),
			ClientID:  fmt.Sprintf("failover-%d-%d", s.seed, i),
		})
		if err != nil {
			return nil, 0, fmt.Errorf("fail-over phase: %w", err)
		}
		defer strat.Close()
		callers[i] = &caller{idx: i, strat: strat, slot: &invSlot{}}
		if _, _, _, err := callers[i].call(nil); err != nil {
			return nil, 0, fmt.Errorf("fail-over phase: first call: %w", err)
		}
	}
	var mu sync.Mutex
	for m := 0; m < s.w.migrations; m++ {
		if m%chunkMigrations == 0 {
			chunks = append(chunks, nil)
		}
		k := len(chunks) - 1
		prim := liveReplica(s.d, callers[0].replica)
		if prim == nil {
			return chunks, failed, fmt.Errorf("fail-over phase: primary %q not live", callers[0].replica)
		}
		runtime.GC()
		b := prim.Budget()
		b.Consume(b.Capacity() * 9 / 10)
		deadline := time.Now().Add(phaseTimeout)
		var wg sync.WaitGroup
		var perr error
		for _, c := range callers {
			wg.Add(1)
			go func(c *caller) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					l, handoff, visible, err := c.call(nil)
					mu.Lock()
					if visible {
						failed++
					}
					if err == nil && handoff {
						chunks[k] = append(chunks[k], l)
					}
					mu.Unlock()
					if err == nil && handoff {
						return
					}
				}
				mu.Lock()
				perr = fmt.Errorf("fail-over phase: client %d never handed off", c.idx)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		if perr != nil {
			return chunks, failed, perr
		}
		if err := s.waitHealthy(prim); err != nil {
			return chunks, failed, err
		}
		if _, err := agreedCounter(s.d); err != nil {
			return chunks, failed, err
		}
	}
	return chunks, failed, nil
}

// waitHealthy waits for the migrated replica to exit and the Recovery
// Manager's replacement to rejoin the full group.
func (s *session) waitHealthy(old *replica.Replica) error {
	deadline := time.Now().Add(phaseTimeout)
	select {
	case <-old.Done():
	case <-time.After(phaseTimeout):
		return fmt.Errorf("migrated replica %s never exited", old.Name())
	}
	for len(liveReplicas(s.d)) < replicas || len(s.d.Hub().Members(s.d.Group())) < replicas {
		if time.Now().After(deadline) {
			return errors.New("group never returned to full strength")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// groupPrimary is the oldest live replica in the service group's view,
// which MEAD treats as the primary (the Recovery Manager also joins the
// group and is skipped).
func groupPrimary(d *experiment.Deployment) string {
	for _, m := range d.Hub().Members(d.Group()) {
		if liveReplica(d, m) != nil {
			return m
		}
	}
	return ""
}

// agreedCounter waits until every live replica holds the same counter.
func agreedCounter(d *experiment.Deployment) (uint64, error) {
	deadline := time.Now().Add(phaseTimeout)
	for {
		live := liveReplicas(d)
		if len(live) == replicas {
			v := live[0].StateCounter()
			same := true
			for _, r := range live[1:] {
				same = same && r.StateCounter() == v
			}
			if same {
				return v, nil
			}
		}
		if time.Now().After(deadline) {
			var got []string
			for _, r := range live {
				got = append(got, fmt.Sprintf("%s=%d", r.Name(), r.StateCounter()))
			}
			return 0, fmt.Errorf("replicas never agreed on a counter: %v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

// restartResult is what the kill-all / cold-restart phase measured.
type restartResult struct {
	seconds  float64
	cycles   int
	replayed uint64
	openMS   float64 // traced: durable.Open on a copy of the primary's directory
}

// restartPhase kills every replica at once, boots a new deployment over the
// same state (durable: the same directories; in memory: nothing survives),
// and times from the boot until every replica holds the pre-crash counter
// and one new call returns that counter + 1. The kill itself is not timed:
// an in-process Crash drains and fsyncs the durable log, which a real crash
// would not. It repeats this restarts times, each time
// killing the deployment the previous restart booted, and reports the
// median. It closes the session's deployment.
func (s *session) restartPhase(scratch string) (restartResult, error) {
	var res restartResult
	var secs []float64
	d := s.d
	s.d = nil
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	s.closeCallers()
	start := time.Now()
	for k := 0; k < restarts || time.Since(start) < restartMinTime; k++ {
		var pre uint64
		if s.w.durable {
			v, err := agreedCounter(d)
			if err != nil {
				return res, err
			}
			pre = v
		}
		primary := groupPrimary(d)
		for _, r := range liveReplicas(d) {
			r.Crash()
		}
		d.Close()
		d = nil

		if s.w.durable && k == 0 && s.tr != nil {
			copyDir := filepath.Join(scratch, "open-copy")
			if err := copyTree(filepath.Join(s.dir, primary), copyDir); err != nil {
				return res, err
			}
			var err error
			s.tr.timed("durable.Open", func() { res.openMS, err = openLadder(copyDir) })
			if err != nil {
				return res, fmt.Errorf("durable.Open on the copied state: %w", err)
			}
		}

		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = experiment.NewDeployment(s.w.scenario(s.seed, s.dir))
		if err != nil {
			return res, fmt.Errorf("cold restart: %w", err)
		}
		if err := waitCounters(d, pre); err != nil {
			return res, err
		}
		got, err := oneCall(d, fmt.Sprintf("restart-%d-%d", s.seed, k))
		if err != nil {
			return res, fmt.Errorf("cold restart: first call: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if got != pre+1 {
			return res, fmt.Errorf("cold restart: first call returned counter %d, want %d", got, pre+1)
		}
		if k == 0 {
			res.replayed = d.Telemetry().OpsReplayed.Value()
		}
	}
	res.seconds, res.cycles = trimmedMean(secs, 0.2), len(secs)
	return res, nil
}

// waitCounters waits until every replica of a freshly booted deployment is
// live and holds exactly want.
func waitCounters(d *experiment.Deployment, want uint64) error {
	deadline := time.Now().Add(phaseTimeout)
	for {
		live := liveReplicas(d)
		all := len(live) == replicas
		for _, r := range live {
			all = all && r.StateCounter() == want
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cold restart: replicas never reached the pre-crash counter %d", want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// oneCall makes a single identified time_of_day call through a private
// connection and returns the counter it reports.
func oneCall(d *experiment.Deployment, id string) (uint64, error) {
	ior, err := primaryIOR(d)
	if err != nil {
		return 0, err
	}
	c := orb.NewClient()
	defer c.Close()
	ref := c.Object(ior)
	defer ref.Close()
	var counter uint64
	err = ref.Invoke("time_of_day", func(e *cdr.Encoder) {
		e.WriteString(id)
		e.WriteULongLong(1)
	}, func(dec *cdr.Decoder) error {
		if _, err := dec.ReadLongLong(); err != nil {
			return err
		}
		v, err := dec.ReadULongLong()
		counter = v
		return err
	})
	return counter, err
}

// copyTree copies the regular files of src into a fresh dst.
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// closeCallers closes every caller's transport (idempotent).
func (s *session) closeCallers() {
	for _, c := range s.callers {
		if c.strat != nil {
			_ = c.strat.Close()
			c.strat = nil
		}
		if c.ref != nil {
			_ = c.ref.Close()
			c.ref = nil
		}
	}
	if s.corb != nil {
		_ = s.corb.Close()
		s.corb = nil
	}
}

// close tears the session down (idempotent).
func (s *session) close() {
	s.closeCallers()
	if s.d != nil {
		s.d.Close()
		s.d = nil
	}
}

// telemetryCounts snapshots the deployment counters the benchmark reports.
type telemetryCounts struct {
	serverRequests, retransmits, forwards uint64
	thresholds, meadFailovers, connSwaps  uint64
	multicasts, viewChanges               uint64
	opsLogged, checkpoints                uint64
	failures, launches                    int
	dispatch                              telemetry.Snapshot
}

func (s *session) counts() telemetryCounts {
	t := s.d.Telemetry()
	return telemetryCounts{
		serverRequests: t.ServerRequests.Value(),
		retransmits:    t.Retransmits.Value(),
		forwards:       t.LocationForwards.Value(),
		thresholds:     t.ThresholdCrossings.Value(),
		meadFailovers:  t.MeadFailovers.Value(),
		connSwaps:      t.ConnSwaps.Value(),
		multicasts:     t.Multicasts.Value(),
		viewChanges:    t.ViewChanges.Value(),
		opsLogged:      t.OpsLogged.Value(),
		checkpoints:    t.CheckpointsPersisted.Value(),
		failures:       s.d.Recovery().Failures(),
		launches:       s.d.Recovery().Launches(),
		dispatch:       t.DispatchTime.Snapshot(),
	}
}

// isSystemException reports whether err is a CORBA system exception (a
// reply that decoded to an exception) rather than a decode failure.
func isSystemException(err error) bool {
	var se *giop.SystemException
	return errors.As(err, &se)
}

// clientID is the at-most-once id of the caller's first identity.
func (c *caller) clientID() string {
	if len(c.ids) > 0 {
		return c.ids[0].name
	}
	return ""
}

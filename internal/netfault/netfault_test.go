package netfault_test

import (
	"errors"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/netfault"
	"mead/internal/orb"
)

// echoRig is a plain ORB server plus a client whose transport runs through
// a netfault injector — the minimal wire to exercise each fault kind.
type echoRig struct {
	t   *testing.T
	srv *orb.ServerORB
	cli *orb.ClientORB
	ref *orb.ObjectRef
	inj *netfault.Injector
	// executed receives one value each time the servant finishes an
	// invocation: the server-side completion signal for requests whose
	// reply the client never sees.
	executed chan struct{}
}

func newEchoRig(t *testing.T, seed int64, plan netfault.Plan) *echoRig {
	t.Helper()
	inj, err := netfault.NewInjector(seed, plan)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	executed := make(chan struct{}, 64) // above any test's invocation count
	srv := orb.NewServer()
	srv.Register([]byte("echo"), orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		defer func() {
			select {
			case executed <- struct{}{}:
			default: // never blocks the server; awaitExecuted then times out
			}
		}()
		s, err := args.ReadString()
		if err != nil {
			return err
		}
		result.WriteString(s)
		return nil
	}))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	ior, err := srv.IORFor("IDL:Echo:1.0", []byte("echo"))
	if err != nil {
		t.Fatalf("IORFor: %v", err)
	}
	cli := orb.NewClient(orb.WithDialer(inj.DialTimeout), orb.WithDialTimeout(2*time.Second))
	ref := cli.Object(ior)
	t.Cleanup(func() { _ = ref.Close(); _ = cli.Close() })
	return &echoRig{t: t, srv: srv, cli: cli, ref: ref, inj: inj, executed: executed}
}

// awaitExecuted waits until the servant has finished n invocations in all.
func (r *echoRig) awaitExecuted(n int) {
	r.t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-r.executed:
		case <-timeout:
			r.t.Fatalf("servant finished %d invocations, want %d", i, n)
		}
	}
}

// invoke performs one echo round trip, returning the invocation error.
func (r *echoRig) invoke() error {
	return r.ref.Invoke("echo",
		func(e *cdr.Encoder) { e.WriteString("ping") },
		func(d *cdr.Decoder) error {
			s, err := d.ReadString()
			if err != nil {
				return err
			}
			if s != "ping" {
				r.t.Errorf("echoed %q, want %q", s, "ping")
			}
			return nil
		})
}

// drive runs n invocations and reports successes and the CORBA exceptions
// observed, by repository id.
func (r *echoRig) drive(n int) (successes int, excepts map[string]int) {
	excepts = make(map[string]int)
	for i := 0; i < n; i++ {
		err := r.invoke()
		if err == nil {
			successes++
			continue
		}
		var se *giop.SystemException
		if errors.As(err, &se) {
			excepts[se.RepoID]++
		} else {
			r.t.Fatalf("invocation %d: non-CORBA error %v", i, err)
		}
	}
	return successes, excepts
}

func TestCleanWirePassthrough(t *testing.T) {
	rig := newEchoRig(t, 1, nil)
	succ, excepts := rig.drive(16)
	if succ != 16 || len(excepts) != 0 {
		t.Fatalf("clean wire: %d/16 succeeded, exceptions %v", succ, excepts)
	}
	if got := rig.inj.Requests(); got != 16 {
		t.Fatalf("request clock = %d, want 16", got)
	}
	if got := rig.srv.Served(); got != 16 {
		t.Fatalf("served = %d, want 16", got)
	}
}

func TestCutRequestMidFrame(t *testing.T) {
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.CutRequestMidFrame, At: 2},
	})
	succ, excepts := rig.drive(4)
	if succ != 3 {
		t.Fatalf("successes = %d, want 3 (exceptions %v)", succ, excepts)
	}
	if excepts[giop.RepoCommFailure] != 1 {
		t.Fatalf("COMM_FAILURE count = %d, want 1 (%v)", excepts[giop.RepoCommFailure], excepts)
	}
	if fired := rig.inj.Fired("cut-request-mid-frame"); fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The torn request must never execute: exactly the 3 successes ran.
	if got := rig.srv.Served(); got != 3 {
		t.Fatalf("served = %d, want 3 (torn request executed?)", got)
	}
}

func TestCutAfterRequest(t *testing.T) {
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.CutAfterRequest, At: 2},
	})
	succ, excepts := rig.drive(4)
	if succ != 3 || excepts[giop.RepoCommFailure] != 1 {
		t.Fatalf("successes = %d, exceptions = %v; want 3 and one COMM_FAILURE", succ, excepts)
	}
	// The request whose reply was lost DID execute (COMPLETED_MAYBE):
	// served = successes + the one fired cut. The client learns of the cut
	// before the server has necessarily read the request off the dead
	// connection, so wait for the servant to finish that many first.
	want := uint64(3 + rig.inj.Fired("cut-after-request"))
	rig.awaitExecuted(int(want))
	if got := rig.srv.Served(); got != want {
		t.Fatalf("served = %d, want %d", got, want)
	}
}

func TestCutReplyMidFrame(t *testing.T) {
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.CutReplyMidFrame, At: 1},
	})
	succ, excepts := rig.drive(4)
	if succ != 3 || excepts[giop.RepoCommFailure] != 1 {
		t.Fatalf("successes = %d, exceptions = %v; want 3 and one COMM_FAILURE", succ, excepts)
	}
	if got := rig.srv.Served(); got != 4 {
		t.Fatalf("served = %d, want 4 (torn-reply request executed)", got)
	}
}

func TestDuplicateReplyIsDiscarded(t *testing.T) {
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.DuplicateReply, At: 1},
	})
	// The duplicated reply sits in the stream ahead of later replies; the
	// ORB must skip the stale request id instead of erroring.
	succ, excepts := rig.drive(6)
	if succ != 6 || len(excepts) != 0 {
		t.Fatalf("successes = %d, exceptions = %v; want 6 clean", succ, excepts)
	}
	if fired := rig.inj.Fired("duplicate-reply"); fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if got := rig.srv.Served(); got != 6 {
		t.Fatalf("served = %d, want 6 (duplication must not re-execute)", got)
	}
}

func TestShortWritesReassemble(t *testing.T) {
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.ShortWrites, At: 0, For: -1, SegmentBytes: 3},
	})
	succ, excepts := rig.drive(8)
	if succ != 8 || len(excepts) != 0 {
		t.Fatalf("successes = %d, exceptions = %v; want 8 clean", succ, excepts)
	}
}

func TestLatencyDelaysInvocation(t *testing.T) {
	const lat = 30 * time.Millisecond
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.Latency, At: 1, Latency: lat},
	})
	if err := rig.invoke(); err != nil {
		t.Fatalf("invocation 0: %v", err)
	}
	start := time.Now()
	if err := rig.invoke(); err != nil {
		t.Fatalf("invocation 1: %v", err)
	}
	if rtt := time.Since(start); rtt < lat {
		t.Fatalf("delayed invocation RTT = %v, want >= %v", rtt, lat)
	}
	if err := rig.invoke(); err != nil {
		t.Fatalf("invocation 2: %v", err)
	}
}

func TestBlackholeStallsThenResets(t *testing.T) {
	const hold = 40 * time.Millisecond
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.Blackhole, At: 1, Hold: hold},
	})
	if err := rig.invoke(); err != nil {
		t.Fatalf("invocation 0: %v", err)
	}
	start := time.Now()
	err := rig.invoke()
	elapsed := time.Since(start)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
		t.Fatalf("blackholed invocation: err = %v, want COMM_FAILURE", err)
	}
	if elapsed < hold-5*time.Millisecond {
		t.Fatalf("blackholed invocation failed after %v, want ~%v stall (half-open, not fail-fast)", elapsed, hold)
	}
	// The swallowed request must never have reached the server.
	if got := rig.srv.Served(); got != 1 {
		t.Fatalf("served = %d, want 1", got)
	}
	if err := rig.invoke(); err != nil {
		t.Fatalf("post-blackhole invocation: %v", err)
	}
}

func TestPartitionRefusesDialsUntilHeal(t *testing.T) {
	const hold = 20 * time.Millisecond
	const heal = 250 * time.Millisecond
	rig := newEchoRig(t, 1, netfault.Plan{
		{Kind: netfault.Partition, At: 1, Hold: hold, Heal: heal},
	})
	if err := rig.invoke(); err != nil {
		t.Fatalf("invocation 0: %v", err)
	}
	start := time.Now()
	err := rig.invoke()
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
		t.Fatalf("partitioned invocation: err = %v, want COMM_FAILURE", err)
	}
	// Inside the heal window the redial is refused: TRANSIENT, the stale
	// cached-reference signature.
	err = rig.invoke()
	if time.Since(start) < heal {
		if !errors.As(err, &se) || se.RepoID != giop.RepoTransient {
			t.Fatalf("dial during partition: err = %v, want TRANSIENT", err)
		}
	}
	time.Sleep(heal)
	if err := rig.invoke(); err != nil {
		t.Fatalf("post-heal invocation: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []netfault.Plan{
		{{Kind: 0, At: 0}},
		{{Kind: netfault.Latency, At: -1, Latency: time.Millisecond}},
		{{Kind: netfault.ShortWrites, At: 0}},
		{{Kind: netfault.Latency, At: 0}},
	}
	for i, p := range bad {
		if _, err := netfault.NewInjector(1, p); err == nil {
			t.Errorf("plan %d: validation passed, want error", i)
		}
	}
	if err := (netfault.Plan{}).Validate(); err != nil {
		t.Errorf("empty plan: %v", err)
	}
}

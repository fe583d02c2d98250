package experiment

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/ftmgr"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
)

// TestPooledCallersRideLocationForward: 32 callers share one pooled,
// multiplexed connection to the primary while a budget-triggered migration
// rewrites its replies into LOCATION_FORWARDs. Each forward must answer the
// request whose reply it replaces, so every caller is forwarded exactly
// once and no call fails; a forward carrying any other request id leaves
// its caller waiting for a reply that never comes.
func TestPooledCallersRideLocationForward(t *testing.T) {
	const callers = 32
	sc := compressed(ftmgr.LocationForward)
	sc.InjectFault = false
	d, err := NewDeployment(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	prim := d.Replicas()[0]
	ior := boundIOR(t, d, prim.Name())
	waitFor(t, "the primary to learn a migration target", func() bool {
		return len(prim.Manager().Replicas()) == d.sc.Replicas
	})

	corb := orb.NewClient(orb.WithConnectionPool())
	defer corb.Close()
	refs := make([]*orb.ObjectRef, callers)
	for i := range refs {
		refs[i] = corb.Object(ior)
	}
	call := func(ref *orb.ObjectRef) (string, error) {
		var served string
		err := ref.Invoke("time_of_day", nil, func(dec *cdr.Decoder) error {
			if _, err := dec.ReadLongLong(); err != nil {
				return err
			}
			if _, err := dec.ReadULongLong(); err != nil {
				return err
			}
			s, err := dec.ReadString()
			served = s
			return err
		})
		return served, err
	}
	for _, ref := range refs {
		if _, err := call(ref); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}

	b := prim.Budget()
	b.Consume(b.Capacity() * 9 / 10)

	// Every caller invokes until its first forwarded call, then makes a few
	// more, which the migration target must serve without forwarding again.
	const after = 5
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i, ref := range refs {
		wg.Add(1)
		go func(i int, ref *orb.ObjectRef) {
			defer wg.Done()
			for ref.Stats().Forwards == 0 {
				if _, err := call(ref); err != nil {
					errs[i] = fmt.Errorf("call before the forward: %w", err)
					return
				}
			}
			for k := 0; k < after; k++ {
				served, err := call(ref)
				if err != nil {
					errs[i] = fmt.Errorf("call after the forward: %w", err)
					return
				}
				if served == prim.Name() {
					errs[i] = fmt.Errorf("served by the migrated replica %s after the forward", served)
					return
				}
			}
		}(i, ref)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("pooled callers hung across the migration")
	}
	for i, ref := range refs {
		if errs[i] != nil {
			t.Errorf("caller %d: %v", i, errs[i])
		}
		if f := ref.Stats().Forwards; f != 1 {
			t.Errorf("caller %d forwarded %d times, want 1", i, f)
		}
	}
	if got := prim.Manager().Migrations(); got < callers {
		t.Errorf("migrating replica rewrote %d replies, want at least %d", got, callers)
	}
}

// boundIOR resolves the Naming Service binding of one replica.
func boundIOR(t *testing.T, d *Deployment, name string) giop.IOR {
	t.Helper()
	entries, err := namesvc.NewClient(d.NamesAddr()).List(d.Service() + "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name == d.Service()+"/"+name {
			return e.IOR
		}
	}
	t.Fatalf("replica %s is not bound in %v", name, entries)
	return giop.IOR{}
}

// waitFor polls cond until it holds, failing the test after 10 s.
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

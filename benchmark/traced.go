package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traced measures the per-layer metrics. It first runs the workload
// untraced once, as the reference for the tracing overhead and for the
// process metrics, then boots again with the tracer, the counting dialer
// and the GCS probe attached, and finishes with the ladder rungs. Each of
// the two windows is half the configured length, so a traced run takes
// about as long as an untraced one.
func traced(cfg config) (report, error) {
	cfg.window /= 2
	refCfg := cfg
	refCfg.root = filepath.Join(cfg.root, "reference") // fresh durable state for each pass
	ref, _, err := bootMeasured(refCfg, 1, 0, nil)
	if err != nil {
		return report{}, err
	}
	winA := timedWindow(ref, refCfg)
	ref.close()

	tr := newTracer()
	s, _, err := bootMeasured(cfg, 1, 0, tr)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	pr, err := startProbe(s.d.HubAddr(), tr)
	if err != nil {
		return report{}, fmt.Errorf("gcs probe: %w", err)
	}
	w0 := wireSnapshot(s.wire)
	win := timedWindow(s, cfg)
	w1 := wireSnapshot(s.wire)
	probeNS, probeSent := pr.close()

	rep := report{host: cfg.host, attempted: win.attempted, failed: win.failed}
	rep.problems = append(rep.problems, winA.problems...)
	rep.problems = append(rep.problems, win.problems...)

	var failover []int64
	for _, ns := range handoffs(s, win, &rep) {
		failover = append(failover, ns...)
	}
	c0, c1, c2 := win.before, win.after, s.counts()
	var ckptBytes float64
	if cfg.w.durable {
		ckptBytes = checkpointBytes(s.dir, groupPrimary(s.d))
	}
	service := s.d.Service()
	rr, err := s.restartPhase(cfg.root)
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}

	// Ladder rungs, after the deployment is gone.
	clientID := s.callers[0].clientID()
	var codec codecResult
	var bare orbResult
	var appendNS float64
	var rungErr error
	tr.timed("ladder.codec", func() { codec, rungErr = codecLadder(newCodecShapes(service, clientID)) })
	if rungErr == nil {
		tr.timed("ladder.orb", func() { bare, rungErr = orbLadder(64, time.Second) })
	}
	appendDir := filepath.Join(cfg.root, "append")
	if rungErr == nil {
		tr.timed("ladder.durable.append", func() { appendNS, rungErr = appendLadder(appendDir, clientID) })
	}
	openMS := rr.openMS
	if rungErr == nil && !cfg.w.durable {
		tr.timed("durable.Open", func() { openMS, rungErr = openLadder(appendDir) })
	}
	if rungErr != nil {
		return report{}, rungErr
	}

	ok := float64(win.ok)
	secs := win.elapsed.Seconds()
	add := func(name string, v float64, unit string, n int) {
		rep.metrics = append(rep.metrics, metric{name, v, unit, n})
	}
	addQ := func(name string, ns []int64, q float64) {
		rep.addQuantile(name, durationsUS(ns), q)
	}

	add("giop.request_encode_ns", codec.reqEnc, "ns", codecBatch*ladderRounds)
	add("giop.request_decode_ns", codec.reqDec, "ns", codecBatch*ladderRounds)
	add("giop.reply_encode_ns", codec.repEnc, "ns", codecBatch*ladderRounds)
	add("giop.reply_decode_ns", codec.repDec, "ns", codecBatch*ladderRounds)
	add("giop.allocs_per_roundtrip", codec.allocsPerRoundTrip, "count", codecBatch)

	add("orb.bare_throughput_ops", bare.throughput, "ops/s", 1)
	add("orb.bare_cpu_us_per_op", bare.cpuUSPerOp, "us", 1)
	add("orb.writes_per_op", float64(w1.writes-w0.writes)/ok, "count", win.ok)
	add("orb.reads_per_op", float64(w1.reads-w0.reads)/ok, "count", win.ok)
	add("orb.bytes_out_per_op", float64(w1.bytesOut-w0.bytesOut)/ok, "B", win.ok)
	add("orb.bytes_in_per_op", float64(w1.bytesIn-w0.bytesIn)/ok, "B", win.ok)
	add("orb.conns_opened", float64(w1.conns-w0.conns), "count", 1)
	s.wire.wireMu.Lock()
	wire := append([]int64(nil), s.wire.wireNS...)
	s.wire.wireMu.Unlock()
	addQ("orb.wire_p50_us", wire, 0.50)
	add("orb.server_requests_per_op", float64(c1.serverRequests-c0.serverRequests)/ok, "count", win.ok)
	add("orb.retransmits", float64(c2.retransmits-c0.retransmits), "count", 1)
	add("orb.location_forwards", float64(c2.forwards-c0.forwards), "count", 1)

	var self []int64
	for _, c := range s.callers {
		self = append(self, c.selfNS...)
	}
	addQ("client.self_p50_us", self, 0.50)
	add("client.failover_invocations", float64(len(failover)), "count", 1)
	addQ("client.failover_p90_us", failover, 0.90)

	failures := c2.failures - c0.failures
	add("recovery.server_failures", float64(failures), "count", 1)
	add("recovery.relaunches", float64(c2.launches-c0.launches), "count", 1)
	add("ftmgr.threshold_crossings", float64(c2.thresholds-c0.thresholds), "count", 1)
	add("ftmgr.mead_failovers", float64(c2.meadFailovers-c0.meadFailovers), "count", 1)
	add("interceptor.conn_swaps", float64(c2.connSwaps-c0.connSwaps), "count", 1)
	clients := len(s.callers)
	if cfg.w.migrations > 0 {
		clients = foCallers
	}
	var perFailure float64
	if failures > 0 {
		perFailure = float64(len(failover)) / float64(failures*clients)
	}
	add("ftmgr.handoffs_per_failure", perFailure, "ratio", len(failover))
	add("replica.counter_regressions", float64(win.regressions), "count", win.ok)

	dispatch := histDelta(c1.dispatch, c0.dispatch)
	for _, q := range []struct {
		name string
		q    float64
	}{{"replica.dispatch_p50_us", 0.50}, {"replica.dispatch_p99_us", 0.99}} {
		v, beyond, ok := histQuantile(dispatch, q.q)
		if !ok {
			rep.problems = append(rep.problems, fmt.Sprintf("%s: only %d samples beyond", q.name, beyond))
		}
		add(q.name, v/1e3, "us", int(dispatch.Count))
	}

	multicasts := float64(c1.multicasts-c0.multicasts) - float64(probeSent)
	if multicasts < 0 {
		multicasts = 0
	}
	add("gcs.bytes_per_s", float64(win.gcsBytes)/secs, "B/s", 1)
	add("gcs.multicasts_per_s", multicasts/secs, "1/s", int(multicasts))
	var perMulticast float64
	if multicasts > 0 {
		perMulticast = float64(win.gcsBytes) / multicasts
	}
	add("gcs.bytes_per_multicast", perMulticast, "B", int(multicasts))
	add("gcs.view_changes", float64(c2.viewChanges-c0.viewChanges), "count", 1)
	addQ("gcs.probe_deliver_p50_us", probeNS, 0.50)
	addQ("gcs.probe_deliver_p99_us", probeNS, 0.99)

	add("durable.ops_logged_per_op", float64(c1.opsLogged-c0.opsLogged)/ok, "count", win.ok)
	add("durable.checkpoints_per_s", float64(c1.checkpoints-c0.checkpoints)/secs, "1/s", int(c1.checkpoints-c0.checkpoints))
	add("durable.checkpoint_file_bytes", ckptBytes, "B", 1)
	add("durable.append_ns", appendNS, "ns", ladderRounds)
	add("durable.open_ms", openMS, "ms", 1)
	add("durable.ops_replayed", float64(rr.replayed), "count", 1)

	nproc := float64(cfg.host.NProc)
	add("process.cpu_util", winA.cpu.Seconds()/(winA.elapsed.Seconds()*nproc), "ratio", 1)
	add("go.mallocs_per_op", float64(winA.mem.mallocs)/float64(winA.ok), "count", winA.ok)
	add("go.gc_cycles_per_s", float64(winA.mem.gcs)/winA.elapsed.Seconds(), "1/s", int(winA.mem.gcs))
	untracedTput := float64(winA.ok) / winA.elapsed.Seconds()
	add("bench.tracing_overhead_pct", 100*(untracedTput-ok/secs)/untracedTput, "%", 2)

	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("write trace: %w", err)
	}
	rep.correct = len(rep.problems) == 0
	return rep, nil
}

// wireCounts is a snapshot of the counting dialer.
type wireCounts struct{ writes, reads, bytesOut, bytesIn, conns int64 }

func wireSnapshot(w *wireStats) wireCounts {
	return wireCounts{w.writes.Load(), w.reads.Load(), w.bytesOut.Load(), w.bytesIn.Load(), w.conns.Load()}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/ledger"
	"floc/internal/netsim"
	"floc/internal/telemetry"
)

// inputForm is how a workload's packets reach the engine.
type inputForm uint8

const (
	formCapture   inputForm = iota // NDJSON capture lines (flocd -replay)
	formDatagrams                  // binary wire frames (flocd serveUDP)
)

// workload is one benchmark traffic mix and deployment.
type workload struct {
	name   string
	shards int
	link   float64 //floc:unit bits/s of the protected link
	form   inputForm
	sealed bool         // trace on, ledger.Sealer as the engine Sink
	hops   *clusterSpec // non-nil: three engines chained leaf -> mid -> root
	mix    mix
}

// Engine parameters shared by every workload: flocd's defaults.
const (
	capacity   = 512  //floc:unit packets
	ringSize   = 1024 //floc:unit packets
	batch      = 64   //floc:unit packets
	engineSeed = 7
	traceCap   = 65536
	// flushTail is how far past the last arrival the untimed flush
	// advances the transmitters, so every admitted packet has left its
	// queue and been counted at egress.
	flushTail = 10.0 //floc:unit seconds
)

// steady is the capture_flood traffic mix: 24 legitimate paths well
// below their fair share of an 8 Mb/s link and 4 flooding paths at
// several times it. Packet lengths are uniform in [600, 1500] bytes.
func steady(duration float64) mix {
	return mix{
		legitPaths: 24, legitRate: 16,
		floodPaths: 4, floodRate: 250,
		flows: 4, duration: duration,
	}
}

var workloads = []*workload{
	{name: "capture_flood", shards: 2, link: 8e6, form: formCapture, mix: steady(720)},
	{name: "datagram_churn", shards: 1, link: 8e6, form: formDatagrams, mix: func() mix {
		m := steady(506)
		m.tailPaths, m.tailPkts, m.tailGap = 100_000, 3, 0.05
		return m
	}()},
	{name: "datagram_sealed", shards: 1, link: 8e6, form: formDatagrams, sealed: true, mix: steady(180)},
	{name: "cluster_pushback", shards: 1, link: 8e6, form: formDatagrams, hops: &defaultCluster, mix: mix{
		legitPaths: 200, legitRate: 0.3,
		floodPaths: 2000, floodRate: 8, floodStart: 5,
		flows: 4, duration: 40,
	}},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// input is a workload's generated traffic in the form its engine eats.
type input struct {
	tr      *traffic
	capture []byte
	frames  *datagrams
}

// release drops the input, labels included.
func (in *input) release() {
	in.capture, in.frames, in.tr = nil, nil, nil
}

// prepare generates the workload's input and checks it: on one shard of
// the protected link, no legitimate path may end up flagged Attack, or
// legit_share would not measure what the paper promises.
func (w *workload) prepare(seed uint64) (*input, error) {
	tr := generate(w.mix, seed)
	if flagged := legitFlagged(tr, w.link); len(flagged) > 0 {
		return nil, fmt.Errorf("seed %d: %d legitimate paths flagged Attack on one shard (first %s)",
			seed, len(flagged), flagged[0])
	}
	in := &input{tr: tr}
	var err error
	if w.form == formCapture {
		in.capture, err = tr.capture()
	} else {
		in.frames, err = tr.datagrams()
	}
	return in, err
}

// legitFlagged runs the traffic straight into a one-shard engine on a
// link of the given rate and returns the legitimate paths the router
// ends up classifying as attack paths.
// floc:unit link bits/s
func legitFlagged(tr *traffic, link float64) []string {
	e, err := dataplane.New(engineConfig(link, 1, nil, nil))
	if err != nil {
		return []string{err.Error()}
	}
	handles := make([]uint32, len(tr.paths))
	for i, p := range tr.paths {
		handles[i] = e.InternPath(p)
	}
	for i, p := range tr.pkts {
		pkt := &netsim.Packet{
			ID: uint64(i + 1), Src: p.src, Dst: dstAddr, Size: int(p.size), Kind: netsim.KindUDP,
			Path: tr.paths[p.path], PathKey: tr.keys[p.path], PathHandle: handles[p.path],
		}
		e.Enqueue(pkt, p.t)
	}
	e.Advance(tr.end)
	snap := e.Snapshot()
	e.Close()
	var flagged []string
	for _, p := range snap.Paths {
		if p.Attack && tr.classOf[p.Key] == classLegit {
			flagged = append(flagged, p.Key)
		}
	}
	return flagged
}

// engineConfig is flocd's engine configuration for a link of the given
// rate, in -replay's BlockOnFull mode.
// floc:unit link bits/s
func engineConfig(link float64, shards int, reg *telemetry.Registry, eg dataplane.PacketSink) dataplane.Config {
	rc := core.DefaultConfig(link, capacity)
	rc.Seed = engineSeed
	return dataplane.Config{
		Router:      rc,
		Shards:      shards,
		RingSize:    ringSize,
		Batch:       batch,
		BlockOnFull: true,
		Telemetry:   reg,
		Egress:      eg,
	}
}

// single is one set-up engine with its observability attachments.
type single struct {
	e      *dataplane.Engine
	reg    *telemetry.Registry
	eg     *egress
	sealer *ledger.Sealer
	sink   *timedSink
	dir    string
}

var ledgerSeq atomic.Int64

// setupSingle builds the engine (and, when sealed, the ledger sealer).
func (w *workload) setupSingle(traced bool) (*single, error) {
	st := &single{reg: telemetry.NewRegistry(), eg: newEgress(false, false)}
	cfg := engineConfig(w.link, w.shards, st.reg, st.eg)
	if w.sealed {
		st.dir = filepath.Join(workDir, "ledger", fmt.Sprintf("%d-%d", os.Getpid(), ledgerSeq.Add(1)))
		if err := os.RemoveAll(st.dir); err != nil {
			return nil, err
		}
		s, err := ledger.NewSealer(st.dir, ledger.SealerOptions{})
		if err != nil {
			return nil, err
		}
		st.sealer = s
		st.sink = &timedSink{dst: s, timed: traced}
		cfg.TraceCapacity = traceCap
		cfg.Sink = st.sink
	}
	e, err := dataplane.New(cfg)
	if err != nil {
		st.discard()
		return nil, err
	}
	st.e = e
	return st, nil
}

// discard closes and removes everything setupSingle built.
func (st *single) discard() {
	if st.e != nil {
		st.e.Close()
	}
	if st.sealer != nil {
		_ = st.sealer.Close() // its ledger is deleted next
		_ = os.RemoveAll(st.dir)
	}
}

// setupOnly times one set-up of the workload's engines and tears it down.
func (w *workload) setupOnly() (float64, error) {
	if w.hops != nil {
		start := now()
		c, err := w.setupCluster(false, nil)
		d := since(start)
		if err != nil {
			return 0, err
		}
		c.close()
		return d, nil
	}
	start := now()
	st, err := w.setupSingle(false)
	d := since(start)
	if err != nil {
		return 0, err
	}
	st.discard()
	return d, nil
}

// timedSink wraps the ledger sealer as the engine's event sink, counting
// events and, in traced runs, timing each Emit.
type timedSink struct {
	dst    *ledger.Sealer
	timed  bool
	events atomic.Int64
	ns     atomic.Int64
}

func (s *timedSink) Emit(e telemetry.Event) {
	s.events.Add(1)
	if !s.timed {
		s.dst.Emit(e)
		return
	}
	start := time.Now() //floclint:allow sim-time the benchmark measures wall-clock time
	s.dst.Emit(e)
	s.ns.Add(int64(time.Since(start))) //floclint:allow sim-time the benchmark measures wall-clock time
}

// now and since read the wall clock for the benchmark's own timings.
func now() time.Time {
	return time.Now() //floclint:allow sim-time the benchmark measures wall-clock time
}

func since(t time.Time) float64 {
	return time.Since(t).Seconds() //floclint:allow sim-time the benchmark measures wall-clock time
}

// window measures one episode's timed window: wall time, process CPU,
// allocation and GC activity.
type window struct {
	start time.Time
	cpu   float64 //floc:unit seconds
	ms    runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuSeconds()
	w.start = now()
	return w
}

// close records the window's end-to-end figures for packets input
// packets into s.
func (w *window) close(s sample, packets int64) {
	wall := since(w.start)
	cpu := cpuSeconds() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := float64(packets)
	s["wall_s"] = wall
	s["throughput_mpps"] = p / wall / 1e6
	s["cpu_us_per_pkt"] = cpu * 1e6 / p
	s["alloc_bytes_per_pkt"] = float64(ms.TotalAlloc-w.ms.TotalAlloc) / p
	s["runtime.gc_cycles"] = float64(ms.NumGC - w.ms.NumGC)
	s["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-w.ms.PauseTotalNs) / 1e6
}

// episode runs the workload once on fresh engines.
func (w *workload) episode(in *input, traced bool) (*episodeResult, error) {
	if w.hops != nil {
		return w.clusterEpisode(in, traced)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &episodeResult{s: sample{}}
	start := now()
	st, err := w.setupSingle(traced)
	if err != nil {
		return nil, err
	}
	r.s["setup_s"] = since(start)

	g := newIngestor(st.e, tr)
	win := openWindow()
	root := tr.begin("episode", 0)
	var end float64
	if in.capture != nil {
		end, err = g.feedCapture(bytes.NewReader(in.capture))
		if err != nil {
			st.discard()
			return nil, err
		}
	} else {
		g.feedFrames(in.frames, 0, in.frames.len())
		end = in.frames.t[in.frames.len()-1]
	}
	sp := tr.begin("dataplane.final_drain", 0)
	drainStart := now()
	st.e.Advance(end)
	r.s["dataplane.final_drain_s"] = since(drainStart)
	tr.end(sp)
	tr.end(root)
	win.close(r.s, g.packets)

	// Untimed from here: flush the queues, read the state, check it.
	st.e.Advance(end + flushTail)
	snapStart := now()
	snap := st.e.Snapshot()
	r.s["dataplane.snapshot_ms_p50"] = 1e3 * since(snapStart)
	stats := st.e.Stats()
	st.e.Close()
	eng := engineReport{name: "engine", e: st.e, reg: st.reg, eg: st.eg, g: g, snap: snap, stats: stats}
	eng.record(r)
	protected(r.s, st.eg, g)
	coreMetrics(r.s, snap)
	scrape(r.s, st.reg)
	r.s["dataplane.intern_calls"] = float64(g.internCalls)
	r.s["wire.resolve_miss_frac"] = float64(g.misses) / float64(g.packets+g.malformed)

	if st.sealer != nil {
		if err := w.checkLedger(r, st, snap); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		lt := tr.fold()
		layerMetrics(r.s, lt, g.packets+g.malformed)
		if st.sink != nil && st.sink.events.Load() > 0 {
			r.s["ledger.emit_ns_per_event"] = float64(st.sink.ns.Load()) / float64(st.sink.events.Load())
		}
		r.spans = tr.spans
	}
	// The daemon's state (engine, registry, interner) stays alive for
	// retained_heap_mb; the spans do not.
	g.tr = nil
	r.keep = []any{st, g}
	return r, nil
}

// checkLedger closes the sealer, verifies the sealed ledger, and replays
// it against the engine's final snapshot.
func (w *workload) checkLedger(r *episodeResult, st *single, snap core.Snapshot) error {
	closeStart := now()
	err := st.sealer.Close()
	r.s["ledger.close_ms"] = 1e3 * since(closeStart)
	r.s["ledger.events"] = float64(st.sealer.Events())
	r.s["ledger.segments"] = float64(st.sealer.Segments())
	r.attempted += st.sink.events.Load()
	if err != nil {
		r.failed++
		r.problems = append(r.problems, "sealer: "+err.Error())
		return os.RemoveAll(st.dir)
	}
	verifyStart := now()
	_, events, err := ledger.VerifyCollect(st.dir)
	r.s["ledger.verify_s"] = since(verifyStart)
	if err != nil {
		r.problems = append(r.problems, "ledger verify: "+err.Error())
	} else if diffs := ledger.Replay(events).Diff(snap); len(diffs) > 0 {
		r.problems = append(r.problems, fmt.Sprintf("ledger replay disagrees with the snapshot in %d ways, first: %s", len(diffs), diffs[0]))
	}
	return os.RemoveAll(st.dir)
}

// engineReport checks one engine's outputs after an episode.
type engineReport struct {
	name  string
	e     *dataplane.Engine
	reg   *telemetry.Registry
	eg    *egress
	g     *ingestor
	snap  core.Snapshot
	stats dataplane.Stats
}

// record checks the engine's invariants and adds its counters to r.
func (er *engineReport) record(r *episodeResult) {
	g, snap, st := er.g, er.snap, er.stats
	r.attempted += g.packets + g.malformed + g.internCalls
	r.failed += g.malformed + g.ringDrops + g.internFails + er.eg.encErr.Load()
	if g.packets != snap.Arrived+st.LimitDrops {
		r.problems = append(r.problems, fmt.Sprintf("%s: offered %d != arrived %d + limit drops %d",
			er.name, g.packets, snap.Arrived, st.LimitDrops))
	}
	if st.RingDrops != 0 || g.ringDrops != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d ring drops", er.name, st.RingDrops))
	}
	if snap.QueueLen != 0 || er.eg.total() != snap.Admitted {
		r.problems = append(r.problems, fmt.Sprintf("%s: after the flush, queue %d and %d transmitted of %d admitted",
			er.name, snap.QueueLen, er.eg.total(), snap.Admitted))
	}
	r.s["dataplane.ring_drops"] += float64(st.RingDrops)
	r.s["dataplane.limit_drops"] += float64(st.LimitDrops)
	var busy float64
	var batches int64
	for i := 0; i < er.e.Shards(); i++ {
		h := er.reg.Histogram(fmt.Sprintf(`floc_dataplane_admission_batch_seconds{shard="%d"}`, i), "", "", nil)
		busy += h.Sum()
		batches += h.Count()
	}
	r.s["dataplane.admit_busy_s"] += busy
	r.s["dataplane.admit_batches"] += float64(batches)
}

// protected records the paper's metric at the protected link: the share
// of each labelled class's offered packets that the link transmitted.
// Churn-tail packets count in neither ratio.
func protected(s sample, eg *egress, in *ingestor) {
	s["legit_share"] = float64(eg.sent[classLegit].Load()) / float64(in.offered[classLegit])
	s["attack_admit_frac"] = float64(eg.sent[classFlood].Load()) / float64(in.offered[classFlood])
}

// coreMetrics records the merged router snapshot's state.
func coreMetrics(s sample, snap core.Snapshot) {
	s["core.paths_live"] = float64(len(snap.Paths))
	s["core.control_runs"] = float64(snap.ControlRuns)
	for reason, n := range snap.Drops {
		s["core.drops."+reason] = float64(n)
	}
	s["dataplane.snapshot_paths"] = float64(len(snap.Paths))
}

// scrape times one Prometheus text rendering of the registry.
func scrape(s sample, reg *telemetry.Registry) {
	start := now()
	_ = reg.WriteText(io.Discard) // io.Discard never fails
	s["telemetry.scrape_ms"] += 1e3 * since(start)
	s["telemetry.trace_dropped"] += float64(reg.CounterValue(telemetry.TraceDroppedMetric))
}

// spanLayers are the span names a traced episode may record; each gets a
// self-time metric.
var spanLayers = []string{
	"wire.parse", "wire.decode", "wire.resolve", "dataplane.intern", "dataplane.enqueue",
	"dataplane.final_drain", "dataplane.advance", "dataplane.snapshot", "cluster.publish",
	"cluster.handle_frame", "dataplane.install_limit", "cluster.tick", "dataplane.sweep",
	"cluster.round",
}

// layerMetrics derives the per-layer figures from a traced episode's
// spans; handled is the number of packets the per-packet layers saw.
func layerMetrics(s sample, lt layerTimes, handled int64) {
	per := func(name string) float64 { return float64(lt.self[name]) / float64(handled) }
	s["wire.parse_ns_per_pkt"] = per("wire.parse")
	s["wire.decode_ns_per_pkt"] = per("wire.decode")
	s["wire.resolve_ns_per_pkt"] = per("wire.resolve")
	s["dataplane.enqueue_ns_per_pkt"] = per("dataplane.enqueue")
	in := lt.durs["dataplane.intern"]
	s["dataplane.intern_us_p50"] = 1e6 * quantile(in, 0.5)
	s["dataplane.intern_us_p90"] = 1e6 * quantile(in, 0.9)
	s["dataplane.intern_busy_s"] = sum(in)
	for _, name := range spanLayers {
		s["self."+name+"_s"] = float64(lt.self[name]) / 1e9
	}
	s["self.other_s"] = float64(lt.other) / 1e9
	s["trace.unattributed_frac"] = float64(lt.other) / float64(lt.wall)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

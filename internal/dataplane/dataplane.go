// Package dataplane runs FLoc across multiple cores. An Engine partitions
// traffic by hashing each packet's path identifier onto one of N worker
// shards; every shard owns a private core.Router (configured with 1/N of
// the link rate and buffer) plus a bounded MPSC ring queue feeding it, so
// no router state is ever shared between goroutines. Producers — UDP
// readers, capture replay, benchmarks — enqueue concurrently; each worker
// drains its ring in batches through the router's batch-admission API and
// services the router's output queue against a virtual-time transmitter.
//
// Partitioning by path identifier is what makes the split faithful to the
// single-router semantics: FLoc's admission state (token buckets,
// conformance, flow tables, aggregation) is all keyed by origin path, so
// a path's packets always meet the same router and the same state. What
// the split cannot preserve is cross-path interaction through the shared
// physical buffer — each shard sees only its own queue when classifying
// uncongested/congested/flooding — which is the standard trade of sharded
// dataplanes (RSS spreads flows over queues the same way).
//
// Backpressure is explicit: when a shard's ring is full the engine either
// drops the packet and counts it (telemetry counter
// floc_dataplane_ring_full_drops_total plus Stats), or, in BlockOnFull
// mode, parks the producer until the worker frees a slot. Nothing is ever
// dropped silently.
package dataplane

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"floc/internal/core"
	"floc/internal/defense"
	"floc/internal/invariant"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// PacketSink receives packets the virtual transmitter has finished
// sending — the engine's egress seam. A daemon forwarding traffic to a
// downstream flocd implements it with a socket writer. Each shard calls
// its sink from its own worker goroutine; implementations shared across
// shards must be safe for concurrent use.
type PacketSink interface {
	// Emit is called once per transmitted packet with the virtual time
	// the transmission completed.
	// floc:unit now seconds
	Emit(pkt *netsim.Packet, now float64)
}

// Config parameterizes an Engine.
type Config struct {
	// Router configures the aggregate router the shards jointly emulate.
	// Link rate and buffer capacity are divided across shards; all other
	// parameters are inherited verbatim. Shard i derives its RNG seed
	// from Router.Seed so runs are reproducible at any shard count
	// (shard 0 keeps the base seed: a 1-shard engine is bit-identical to
	// a plain core.Router).
	Router core.Config
	// Shards is the number of worker shards. Zero means "pick for me":
	// runtime.GOMAXPROCS(0), one shard per schedulable core. Negative is
	// rejected — it is always a caller bug, not a preference.
	Shards int
	// RingSize is the per-shard ring capacity in packets. It must be a
	// power of two (the ring maps cursors to slots with a mask); zero
	// defaults to 1024.
	RingSize int //floc:unit packets
	// Batch bounds how many packets a worker admits per ring drain; zero
	// defaults to 64.
	Batch int //floc:unit packets
	// BlockOnFull makes Enqueue on a full ring wait instead of dropping:
	// the producer yields briefly, then parks until the worker frees ring
	// space or the engine closes. Use for offline replay, where input has
	// no real arrival clock and losing packets to producer speed would be
	// nonsense.
	BlockOnFull bool
	// Telemetry, when non-nil, receives the shard routers' metrics and
	// the engine's backpressure counters. Counters aggregate correctly
	// across shards (shared atomic handles); gauges are last-writer-wins
	// per control run and are only indicative under sharding.
	Telemetry *telemetry.Registry
	// TraceCapacity, when > 0, attaches a bounded event-trace ring of
	// that size to each shard router. Wraparound losses from every shard
	// count on the shared Telemetry counter
	// floc_trace_dropped_events_total. Requires Telemetry.
	TraceCapacity int
	// Sink, when non-nil, receives every shard router's emitted events
	// with Event.Shard stamped to the emitting shard — the seam the
	// forensic ledger sealer plugs into. The sink is shared by all shard
	// workers concurrently and must be safe for concurrent use. Requires
	// Telemetry.
	Sink telemetry.EventSink
	// Egress, when non-nil, receives every packet the shard transmitters
	// finish sending — the seam a multi-router deployment uses to forward
	// admitted traffic to the next flocd hop. Shared by all shard workers
	// concurrently; must be safe for concurrent use.
	Egress PacketSink
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.RingSize == 0 {
		c.RingSize = 1024
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	return c
}

// validate checks a resolved configuration.
func (c Config) validate() error {
	switch {
	case c.Shards <= 0:
		return fmt.Errorf("dataplane: shard count %d <= 0", c.Shards)
	case c.RingSize < 2 || c.RingSize&(c.RingSize-1) != 0:
		return fmt.Errorf("dataplane: ring size %d not a power of two >= 2", c.RingSize)
	case c.Batch <= 0:
		return fmt.Errorf("dataplane: batch %d <= 0", c.Batch)
	case c.Router.Capacity/c.Shards < 4:
		return fmt.Errorf("dataplane: capacity %d over %d shards leaves < 4 packets per shard",
			c.Router.Capacity, c.Shards)
	case c.TraceCapacity > 0 && c.Telemetry == nil:
		return fmt.Errorf("dataplane: TraceCapacity requires Telemetry")
	case c.Sink != nil && c.Telemetry == nil:
		return fmt.Errorf("dataplane: Sink requires Telemetry")
	}
	return nil
}

// Stats are the engine's own lifetime counters, distinct from router
// admission counters: they describe the ring boundary, not the policy.
type Stats struct {
	// Accepted counts packets that entered a shard ring.
	Accepted int64 //floc:unit packets
	// RingDrops counts packets dropped because a ring was full.
	RingDrops int64 //floc:unit packets
	// Processed counts packets the workers ran through admission.
	Processed int64 //floc:unit packets
	// LimitDrops counts packets dropped by cluster-installed per-path
	// limits before they reached router admission.
	LimitDrops int64 //floc:unit packets
}

// seedStride separates shard RNG streams (64-bit golden ratio, odd).
const seedStride = 0x9e3779b97f4a7c15

// admissionLatencyBounds are the fixed buckets for the per-shard batch
// admission latency histogram: 1µs to ~16ms in powers of four, wide
// enough to show a stall without per-observation allocation.
var admissionLatencyBounds = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, //floc:unit seconds
}

// shardSink stamps the emitting shard's index onto every event bound
// for the engine-wide sink, so ledger replay can reconstruct per-shard
// streams (mode transitions and control-run counts are per-shard state).
type shardSink struct {
	shard uint32
	dst   telemetry.EventSink
}

// floc:hotpath
func (s *shardSink) Emit(e telemetry.Event) {
	e.Shard = s.shard
	s.dst.Emit(e)
}

// Engine is the sharded dataplane. Enqueue and InternPath are safe for
// concurrent use by any number of producers; the control-plane methods
// (Drain, Advance, Snapshot, InstallLimit, SweepLimits, Close) serialize
// through an internal mutex and must not race with further Enqueues'
// expectations (see each method).
type Engine struct {
	cfg    Config
	shards []*shard

	ctl    sync.Mutex    // serializes barriers with each other and with Close
	acks   chan struct{} // barrier acks, one per shard; reused under ctl
	closed atomic.Bool
	wg     sync.WaitGroup
}

// shard is one worker: ring in, private router, virtual transmitter out.
type shard struct {
	id     int // index in Engine.shards
	ring   *ring
	router *core.Router

	wake     chan struct{} // 1-buffered doorbell
	sleeping atomic.Bool
	room     chan struct{} // 1-buffered: a dequeue freed ring space
	waiters  atomic.Int32  // BlockOnFull producers parked on room
	cmds     chan command
	stop     chan struct{}

	accepted  atomic.Int64
	ringDrops atomic.Int64
	processed atomic.Int64
	dropCtr   *telemetry.Counter // nil when telemetry is off

	// Cluster limit surface: installed-limit count and limiter drops,
	// published by the worker for lock-free external reads.
	limitCount   atomic.Int64
	limitDrops   atomic.Int64
	limitDropCtr *telemetry.Counter // nil when telemetry is off
	limitGauge   *telemetry.Gauge   // nil when telemetry is off

	// Health surface (nil when telemetry is off): batch admission wall-
	// clock latency and ring occupancy sampled after each drained batch.
	latHist  *telemetry.Histogram
	occGauge *telemetry.Gauge

	// Worker-owned state below; never touched by producers.
	buf       []item
	bi        []core.BatchItem
	free      float64              //floc:unit seconds
	rateBytes float64              //floc:unit bytes/s
	egress    PacketSink           // nil = no forwarding
	bank      *defense.LimiterBank // nil until the first limit install
	bankDrops int                  // bank.Drops() last published to counters
}

// command is code a worker runs on its own shard at a quiescent point
// (see handle); the worker signals done once fn returns.
type command struct {
	fn   func(sh *shard)
	done chan struct{}
}

// New builds an engine and starts its workers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if invariant.Hot {
		invariant.Positive("dataplane.shards", float64(cfg.Shards))
		invariant.Positive("dataplane.ring-size", float64(cfg.RingSize))
	}
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards), acks: make(chan struct{}, cfg.Shards)}
	n := cfg.Shards
	baseCap, remCap := cfg.Router.Capacity/n, cfg.Router.Capacity%n
	for i := 0; i < n; i++ {
		rc := cfg.Router
		rc.LinkRateBits = cfg.Router.LinkRateBits / float64(n)
		rc.Capacity = baseCap
		if i < remCap {
			rc.Capacity++
		}
		if i > 0 {
			rc.Seed = cfg.Router.Seed + uint64(i)*seedStride
		}
		router, err := core.NewRouter(rc)
		if err != nil {
			return nil, fmt.Errorf("dataplane: shard %d: %w", i, err)
		}
		sh := &shard{
			id:     i,
			ring:   newRing(cfg.RingSize),
			router: router,
			wake:   make(chan struct{}, 1),
			room:   make(chan struct{}, 1),
			cmds:   make(chan command),
			stop:   make(chan struct{}),
			buf:    make([]item, cfg.Batch),
			bi:     make([]core.BatchItem, 0, cfg.Batch),
			//floclint:allow units bits-to-bytes: per-shard transmitter rate, 8 bits per byte
			rateBytes: rc.LinkRateBits / 8,
		}
		if cfg.Telemetry != nil {
			tel := &telemetry.Telemetry{Registry: cfg.Telemetry}
			if cfg.TraceCapacity > 0 {
				tel.Trace = telemetry.NewTrace(cfg.TraceCapacity)
				// All shard traces share the one wraparound counter.
				tel.Trace.SetDropCounter(cfg.Telemetry.Counter(telemetry.TraceDroppedMetric,
					"events lost to trace ring wraparound", "events"))
			}
			if cfg.Sink != nil {
				tel.Sink = &shardSink{shard: uint32(i), dst: cfg.Sink}
			}
			router.SetTelemetry(tel)
			sh.dropCtr = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_dataplane_ring_full_drops_total{shard="%d"}`, i),
				"packets dropped at a full shard ring", "packets")
			sh.occGauge = cfg.Telemetry.Gauge(
				fmt.Sprintf(`floc_dataplane_ring_occupancy{shard="%d"}`, i),
				"shard ring occupancy after the last drained batch", "packets")
			sh.latHist = cfg.Telemetry.Histogram(
				fmt.Sprintf(`floc_dataplane_admission_batch_seconds{shard="%d"}`, i),
				"wall-clock time to admit one drained batch", "seconds",
				admissionLatencyBounds)
			sh.limitDropCtr = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_cluster_limit_dropped_total{shard="%d"}`, i),
				"packets dropped by cluster-installed path limits", "packets")
			sh.limitGauge = cfg.Telemetry.Gauge(
				fmt.Sprintf(`floc_cluster_installed_limits{shard="%d"}`, i),
				"active cluster-installed path limits", "")
		}
		sh.egress = cfg.Egress
		e.shards[i] = sh
	}
	for _, sh := range e.shards {
		e.wg.Add(1)
		go func(sh *shard) {
			defer e.wg.Done()
			sh.run()
		}(sh)
	}
	return e, nil
}

// Shards returns the resolved shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard index a path identifier maps to. Exported so
// tests and traffic generators can construct shard-targeted workloads.
func (e *Engine) ShardOf(path pathid.PathID) int {
	return pathShard(path, len(e.shards))
}

// pathShard hashes a path identifier (FNV-1a over the big-endian domain
// sequence) onto [0, n). FNV is enough here: path identifiers are
// assigned by topology, not chosen by the attacker per-packet — a flow
// cannot re-shard itself by varying header bytes the router would reject.
// That argument only holds for validated paths, so the parameter is a
// declared taint sink: raw wire paths must pass a sanitizer first.
// floc:hotpath
// floc:sink path shard-hash
func pathShard(path pathid.PathID, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, as := range path {
		v := uint32(as)
		for shift := 24; shift >= 0; shift -= 8 {
			h ^= uint64(uint8(v >> shift))
			h *= prime64
		}
	}
	return int(h % uint64(n))
}

// Enqueue hands a packet to its shard. It returns true when the packet
// entered the ring; false means the ring was full and the packet was
// dropped (counted in Stats and telemetry) or the engine is closed. With
// BlockOnFull the full case parks until the worker frees a slot instead.
// The packet must not be mutated after a successful Enqueue.
// floc:unit now seconds
// floc:hotpath
func (e *Engine) Enqueue(pkt *netsim.Packet, now float64) bool {
	if e.closed.Load() {
		return false
	}
	sh := e.shards[pathShard(pkt.Path, len(e.shards))]
	it := item{pkt: pkt, at: now}
	if !sh.ring.tryEnqueue(it) && !e.full(sh, it) {
		return false
	}
	sh.accepted.Add(1)
	sh.ringWake()
	return true
}

// spinYields bounds the yield-and-retry spin before a BlockOnFull
// producer parks: a worker frees a batch of slots sooner than a parked
// goroutine wakes, and parking at once cost BenchmarkDataplaneEnqueueSharded
// about a tenth of its throughput.
const spinYields = 64

// full is Enqueue on a full ring: it counts a drop, or with BlockOnFull
// spins, then parks until a dequeue frees space, giving up once the
// engine closes. Reports whether it enqueued. The ordering argument
// mirrors ringWake's: a producer raises waiters before its retry, the
// worker frees a slot before loading waiters, so either the retry sees
// the slot or the worker sees the waiter and signals room by the time
// its last dequeue empties the ring.
// floc:coldpath backpressure runs only when a ring is full
func (e *Engine) full(sh *shard, it item) bool {
	if !e.cfg.BlockOnFull {
		sh.ringDrops.Add(1)
		if sh.dropCtr != nil {
			sh.dropCtr.Inc()
		}
		return false
	}
	sh.waiters.Add(1)
	defer sh.waiters.Add(-1)
	for spins := 0; !sh.ring.tryEnqueue(it); spins++ {
		sh.ringWake()
		if spins < spinYields {
			runtime.Gosched()
		} else {
			select {
			case <-sh.room:
			case <-sh.stop:
			}
		}
		if e.closed.Load() {
			return false
		}
	}
	return true
}

// ringWake rings the shard's doorbell if the worker is parked. The
// ordering argument: a producer publishes the item (sequential
// consistency of the slot sequence store) before loading sleeping, and
// the worker stores sleeping=true before its final emptiness check — so
// either the worker sees the item, or the producer sees sleeping and the
// buffered doorbell survives until the worker selects on it.
// floc:hotpath
func (sh *shard) ringWake() {
	if sh.sleeping.Load() {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// run is the worker loop: drain batches while there is work, handle
// control commands at quiescent points, park when idle.
func (sh *shard) run() {
	for {
		if n := sh.dequeue(); n > 0 {
			sh.process(sh.buf[:n])
			select {
			case c := <-sh.cmds:
				sh.handle(c)
			default:
			}
			continue
		}
		sh.sleeping.Store(true)
		if !sh.ring.empty() {
			sh.sleeping.Store(false)
			continue
		}
		select {
		case <-sh.wake:
			sh.sleeping.Store(false)
		case c := <-sh.cmds:
			sh.sleeping.Store(false)
			sh.handle(c)
		case <-sh.stop:
			sh.sleeping.Store(false)
			sh.drainAll()
			return
		}
	}
}

// dequeue moves the next batch off the ring into buf and signals a parked
// BlockOnFull producer once the ring is at most half full: waking it at
// every batch would cost a producer that outruns the worker a park/unpark
// round trip per batch.
// floc:hotpath
func (sh *shard) dequeue() int {
	n := sh.ring.dequeueBatch(sh.buf)
	if n > 0 && sh.waiters.Load() > 0 && sh.ring.occupancy() <= len(sh.ring.slots)/2 {
		select {
		case sh.room <- struct{}{}:
		default:
		}
	}
	return n
}

// process admits one batch. The router's virtual transmitter is serviced
// up to the batch head's arrival time first, so queue occupancy tracks
// arrival time the same way the simulator's event loop interleaves
// enqueues and dequeues.
// floc:hotpath
func (sh *shard) process(items []item) {
	var start time.Time
	if sh.latHist != nil {
		start = time.Now() //floclint:allow sim-time wall-clock batch latency is exactly what the health histogram measures
	}
	sh.serve(items[0].at)
	sh.bi = sh.bi[:0]
	if sh.bank == nil {
		for i := range items {
			sh.bi = append(sh.bi, core.BatchItem{Pkt: items[i].pkt, At: items[i].at})
		}
	} else {
		// Cluster-installed limits gate admission: a path over its
		// propagated budget is dropped here, before it spends any router
		// buffer — the upstream half of the pushback contract.
		for i := range items {
			if !sh.bank.Admit(items[i].pkt.PathHandle, items[i].pkt, items[i].at) {
				continue
			}
			sh.bi = append(sh.bi, core.BatchItem{Pkt: items[i].pkt, At: items[i].at})
		}
		if d := sh.bank.Drops(); d != sh.bankDrops {
			delta := int64(d - sh.bankDrops)
			sh.bankDrops = d
			sh.limitDrops.Add(delta)
			if sh.limitDropCtr != nil {
				sh.limitDropCtr.Add(delta)
			}
		}
	}
	if len(sh.bi) > 0 {
		sh.router.EnqueueBatch(sh.bi)
	}
	sh.processed.Add(int64(len(items)))
	if sh.latHist != nil {
		sh.latHist.Observe(time.Since(start).Seconds()) //floclint:allow sim-time wall-clock batch latency is exactly what the health histogram measures
		sh.occGauge.Set(float64(sh.ring.occupancy()))
	}
}

// serve drains the router's output queue through the shard's share of
// the link until the virtual transmitter catches up with now.
// floc:unit now seconds
// floc:hotpath
func (sh *shard) serve(now float64) {
	for sh.free <= now {
		pkt := sh.router.Dequeue(sh.free)
		if pkt == nil {
			sh.free = now
			return
		}
		sh.free += float64(pkt.Size) / sh.rateBytes
		if sh.egress != nil {
			sh.egress.Emit(pkt, sh.free)
		}
	}
}

// drainAll empties the ring completely (used before commands and at
// shutdown so barriers see every packet enqueued before them).
func (sh *shard) drainAll() {
	for {
		n := sh.dequeue()
		if n == 0 {
			return
		}
		sh.process(sh.buf[:n])
	}
}

// handle runs a command at a quiescent point: the ring is fully drained
// first, so the command sees every packet enqueued happens-before it.
func (sh *shard) handle(c command) {
	sh.drainAll()
	c.fn(sh)
	c.done <- struct{}{}
}

// barrier runs fn on each listed shard's worker at a quiescent point (see
// handle) and waits for all of them: the one way into worker-owned state
// from outside. It runs nothing and reports false once the engine closed.
func (e *Engine) barrier(shards []*shard, fn func(sh *shard)) bool {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed.Load() {
		return false
	}
	for _, sh := range shards {
		sh.cmds <- command{fn: fn, done: e.acks}
	}
	for range shards {
		<-e.acks
	}
	return true
}

// installLimit installs or releases handle's limit in worker context and
// emits the FeedbackApplied trace event from the worker — the shard trace
// is single-writer, so the event must not be added from the caller's
// goroutine.
// floc:unit expiresAt seconds
// floc:unit now seconds
func (sh *shard) installLimit(handle uint32, path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) {
	if sh.bank == nil {
		if rate <= 0 {
			return // releasing a limit that was never installed
		}
		sh.bank = defense.NewLimiterBank()
	}
	sh.bank.Install(handle, rate, expiresAt)
	sh.bankDrops = sh.bank.Drops()
	sh.publishLimitCount()
	if telemetry.Compiled {
		if tel := sh.router.Telemetry(); tel != nil {
			tel.Emit(telemetry.Event{
				Time:  now,
				Type:  telemetry.EventFeedbackApplied,
				Path:  path.Key(),
				Value: float64(rate),
				Peer:  peer,
			})
		}
	}
}

// publishLimitCount refreshes the shard's installed-limit surface.
func (sh *shard) publishLimitCount() {
	n := int64(sh.bank.Active())
	sh.limitCount.Store(n)
	if sh.limitGauge != nil {
		sh.limitGauge.Set(float64(n))
	}
}

// InternPath binds path to a dense handle on the shard router that owns
// it and returns the handle (0 only when that router's handle space is
// exhausted). Producers stamp it into Packet.PathHandle; since Enqueue
// routes a path's packets to that same shard, the handle is always
// presented to the router that minted it. Minting runs on the caller's
// goroutine under a cold-path lock: no barrier, no wait on the worker.
// Cold: call once per path, not per packet.
func (e *Engine) InternPath(path pathid.PathID) uint32 {
	return e.shards[pathShard(path, len(e.shards))].router.InternPath(path)
}

// InstallLimit installs (rate > 0) or releases (rate <= 0) a per-path
// rate limit on the shard that owns path, ahead of router admission —
// the application point for a cluster peer's congestion feedback.
// expiresAt is the arrival-clock deadline after which the limit lapses
// unless refreshed (0 = never); peer tags the FeedbackApplied trace
// event with the advertising router's ID; now stamps that event. The
// handle is minted on the caller's goroutine, as InternPath does; the
// install is a barrier on the owning shard: packets enqueued
// happens-before the call are admitted under the old limit. Returns
// false when the engine is closed, the path is empty, or the shard
// router's handle space is exhausted. Cold: called per feedback record,
// never per packet.
// floc:unit expiresAt seconds
// floc:unit now seconds
func (e *Engine) InstallLimit(path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) bool {
	if len(path) == 0 {
		return false
	}
	i := pathShard(path, len(e.shards))
	handle := e.shards[i].router.InternPath(path)
	if handle == 0 {
		return false // handle space exhausted
	}
	return e.barrier(e.shards[i:i+1], func(sh *shard) {
		sh.installLimit(handle, path, rate, expiresAt, peer, now)
	})
}

// SweepLimits reaps expired cluster limits on every shard so the
// installed-limit gauge tracks lease expiry even on idle paths. Call
// periodically from the daemon's tick loop.
// floc:unit now seconds
func (e *Engine) SweepLimits(now float64) {
	e.barrier(e.shards, func(sh *shard) {
		if sh.bank != nil {
			sh.bank.Sweep(now)
			sh.publishLimitCount()
		}
	})
}

// InstalledLimits returns the engine-wide count of active cluster
// limits, as last published by the shard workers. Lock-free; safe to
// call from health handlers.
func (e *Engine) InstalledLimits() int {
	n := 0
	for _, sh := range e.shards {
		n += int(sh.limitCount.Load())
	}
	return n
}

// Drain blocks until every packet enqueued happens-before the call has
// been processed by its shard. Concurrent Enqueues are allowed but not
// waited for.
func (e *Engine) Drain() {
	e.barrier(e.shards, func(*shard) {})
}

// Advance drains all rings and services every shard's output queue up to
// virtual time now — the flush at end of input, when no further arrivals
// will drive the transmitters.
// floc:unit now seconds
func (e *Engine) Advance(now float64) {
	e.barrier(e.shards, func(sh *shard) { sh.serve(now) })
}

// Snapshot drains all rings and returns the deterministic merge of the
// per-shard router snapshots: counters and buffer state sum, per-path
// entries concatenate sorted by key (paths are disjoint across shards by
// construction), and the mode is the most severe of any shard's.
func (e *Engine) Snapshot() core.Snapshot {
	parts := make([]core.Snapshot, len(e.shards))
	read := func(sh *shard) { parts[sh.id] = sh.router.Snapshot() }
	if !e.barrier(e.shards, read) {
		// Closed: the workers are gone, so the routers are safe to read
		// here, one Snapshot at a time.
		e.ctl.Lock()
		defer e.ctl.Unlock()
		for _, sh := range e.shards {
			read(sh)
		}
	}
	return mergeSnapshots(parts)
}

// mergeSnapshots folds per-shard snapshots into one aggregate view.
func mergeSnapshots(parts []core.Snapshot) core.Snapshot {
	out := core.Snapshot{
		Drops:      make(map[string]int64),
		Aggregates: make(map[string][]string),
	}
	for _, p := range parts {
		if p.Mode > out.Mode {
			out.Mode = p.Mode
		}
		out.QueueLen += p.QueueLen
		out.QMin += p.QMin
		out.QMax += p.QMax
		out.GuaranteedPaths += p.GuaranteedPaths
		out.Paths = append(out.Paths, p.Paths...)
		for key, members := range p.Aggregates {
			out.Aggregates[key] = append(out.Aggregates[key], members...)
		}
		out.Arrived += p.Arrived
		out.Admitted += p.Admitted
		for reason, n := range p.Drops {
			out.Drops[reason] += n
		}
		out.FilterLive += p.FilterLive
		out.FilterMemoryBytes += p.FilterMemoryBytes
		out.ControlRuns += p.ControlRuns
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Key < out.Paths[j].Key })
	for key := range out.Aggregates {
		sort.Strings(out.Aggregates[key])
	}
	return out
}

// Stats returns the engine's ring-boundary counters.
func (e *Engine) Stats() Stats {
	var s Stats
	for _, sh := range e.shards {
		s.Accepted += sh.accepted.Load()
		s.RingDrops += sh.ringDrops.Load()
		s.Processed += sh.processed.Load()
		s.LimitDrops += sh.limitDrops.Load()
	}
	return s
}

// Close stops the workers after draining every ring. Enqueue returns
// false once Close has begun. Snapshot remains valid after Close.
func (e *Engine) Close() {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed.Swap(true) {
		return
	}
	for _, sh := range e.shards {
		close(sh.stop)
	}
	e.wg.Wait()
}

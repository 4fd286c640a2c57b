package main

import (
	"fmt"

	"floc/internal/cluster"
	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// clusterSpec is the cluster_pushback deployment: three one-shard
// engines chained leaf -> mid -> root, as three flocd -forward daemons
// would be. Only the root's link (the workload's link) is a bottleneck.
type clusterSpec struct {
	edgeLink float64          //floc:unit bits/s of the leaf and mid links
	round    float64          //floc:unit seconds of capture time between control rounds
	minLimit units.BitsPerSec // floor of an advertised limit
	converge float64          //floc:unit ratio of flood the leaf must drop in one round
}

var defaultCluster = clusterSpec{edgeLink: 400e6, round: 0.25, minLimit: 4000, converge: 0.9}

// hop is one daemon of the chain.
type hop struct {
	name string
	e    *dataplane.Engine
	reg  *telemetry.Registry
	eg   *egress
	node *cluster.Node
	inst *installer
	g    *ingestor
}

// chain is the three-daemon deployment plus its in-memory control
// transport.
type chain struct {
	hops [3]*hop // leaf, mid, root
	tp   *memTransport
	tr   *tracer

	durs        map[string][]float64 //floc:unit seconds per cold call, by span name
	applied     int64                // feedback records installed by HandleFrame
	frameErrs   int64                // frames HandleFrame could not decode
	retransmits int64
}

// memTransport is the in-memory cluster.Transport: every frame lands in
// the named peer's inbox until the round delivers it.
type memTransport struct {
	inbox  map[string][][]byte
	frames int64
}

func (t *memTransport) Send(peer string, frame []byte) error {
	t.inbox[peer] = append(t.inbox[peer], frame)
	t.frames++
	return nil
}

// installer is the node's cluster.Installer: the engine, with each call
// counted and traced.
type installer struct {
	e       *dataplane.Engine
	c       *chain
	calls   int64
	fails   int64
	limited []pathid.PathID // paths given a nonzero limit, for the episode's checks
}

// floc:unit expiresAt seconds
// floc:unit now seconds
func (in *installer) InstallLimit(path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) bool {
	var ok bool
	in.c.timed("dataplane.install_limit", 0, func() { ok = in.e.InstallLimit(path, rate, expiresAt, peer, now) })
	in.calls++
	if !ok {
		in.fails++
	} else if rate > 0 {
		in.limited = append(in.limited, path)
	}
	return ok
}

// timed runs one cold call, recording its duration and, when traced, a
// span.
func (c *chain) timed(name string, id int64, fn func()) float64 {
	sp := c.tr.begin(name, id)
	start := now()
	fn()
	d := since(start)
	c.tr.end(sp)
	c.durs[name] = append(c.durs[name], d)
	return d
}

// setupCluster builds the three engines and their cluster nodes.
func (w *workload) setupCluster(traced bool, tr *tracer) (*chain, error) {
	c := &chain{tp: &memTransport{inbox: map[string][][]byte{}}, tr: tr, durs: map[string][]float64{}}
	names := [3]string{"leaf", "mid", "root"}
	links := [3]float64{w.hops.edgeLink, w.hops.edgeLink, w.link}
	// Feedback flows against the traffic: the root pushes to the mid,
	// the mid relays to the leaf.
	peers := [3][]string{nil, {"leaf"}, {"mid"}}
	for i := range c.hops {
		h := &hop{name: names[i], reg: telemetry.NewRegistry(), eg: newEgress(i < 2, traced)}
		e, err := dataplane.New(engineConfig(links[i], 1, h.reg, h.eg))
		if err != nil {
			c.close()
			return nil, err
		}
		h.e = e
		h.inst = &installer{e: e, c: c}
		h.node, err = cluster.New(cluster.Config{
			RouterID:     uint32(i + 1),
			Peers:        peers[i],
			Transport:    c.tp,
			Installer:    h.inst,
			PacketSize:   engineConfig(links[i], 1, nil, nil).Router.PacketSize,
			MinLimitBits: w.hops.minLimit,
			Telemetry:    h.reg,
		})
		if err != nil {
			e.Close()
			c.close()
			return nil, err
		}
		h.g = newIngestor(e, tr)
		c.hops[i] = h
	}
	return c, nil
}

func (c *chain) close() {
	for _, h := range c.hops {
		if h != nil {
			h.e.Close()
		}
	}
}

// forward moves everything hop i has transmitted so far into hop i+1,
// decoding each frame as the next daemon's serveUDP would. Returns the
// time spent.
func (c *chain) forward(i int) float64 {
	start := now()
	d := c.hops[i].eg.take()
	c.hops[i+1].g.feedFrames(d, 0, d.len())
	return since(start)
}

// advance serves every engine's transmitter up to t, leaf first,
// forwarding each hop's output before advancing the next. Returns the
// time spent forwarding (packet work, not control work).
// floc:unit t seconds
func (c *chain) advance(t float64, id int64) (fwd float64) {
	for i, h := range c.hops {
		c.timed("dataplane.advance", id, func() { h.e.Advance(t) })
		if i < 2 {
			fwd += c.forward(i)
		}
	}
	return fwd
}

// round is one control round at capture time t across all three nodes:
// Advance each engine, then Snapshot -> Publish on every node, deliver
// the frames (HandleFrame -> InstallLimit, and relays), Tick, and
// SweepLimits. Returns the control work's duration, excluding the
// packet forwarding between hops, the time spent in Publish, and the
// number of records published.
// floc:unit t seconds
func (c *chain) round(t float64, id int64) (ctl float64, publish float64, records int) {
	sp := c.tr.begin("cluster.round", id)
	start := now()
	fwd := c.advance(t, id)
	for i := len(c.hops) - 1; i >= 0; i-- {
		h := c.hops[i]
		var snap core.Snapshot
		c.timed("dataplane.snapshot", id, func() { snap = h.e.Snapshot() })
		publish += c.timed("cluster.publish", id, func() { records += h.node.Publish(snap, t) })
	}
	// The mid's inbox first: handling the root's frames relays them into
	// the leaf's.
	for _, h := range []*hop{c.hops[1], c.hops[0]} {
		frames := c.tp.inbox[h.name]
		c.tp.inbox[h.name] = nil
		for _, f := range frames {
			c.timed("cluster.handle_frame", id, func() {
				n, err := h.node.HandleFrame(f, t)
				if err != nil {
					c.frameErrs++
				}
				c.applied += int64(n)
			})
		}
	}
	for _, h := range c.hops {
		c.timed("cluster.tick", id, func() { c.retransmits += int64(h.node.Tick(t)) })
	}
	for _, h := range c.hops {
		c.timed("dataplane.sweep", id, func() { h.e.SweepLimits(t) })
	}
	ctl = since(start) - fwd
	c.tr.end(sp)
	return ctl, publish, records
}

// clusterEpisode runs cluster_pushback once.
func (w *workload) clusterEpisode(in *input, traced bool) (*episodeResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &episodeResult{s: sample{}}
	start := now()
	c, err := w.setupCluster(traced, tr)
	if err != nil {
		return nil, err
	}
	r.s["setup_s"] = since(start)
	leaf, root := c.hops[0], c.hops[2]
	d := in.frames
	n := d.len()
	floodStart := w.mix.floodStart

	var (
		rounds      []float64
		publishes   []float64
		records     int64
		converge    = -1.0
		prevOffered int64
		prevSent    int64
	)
	win := openWindow()
	rootSpan := tr.begin("episode", 0)
	next := w.hops.round
	for i, id := 0, int64(1); i < n; {
		j := i
		for j < n && j-i < chunk && d.t[j] < next {
			j++
		}
		if j > i {
			leaf.g.feedFrames(d, i, j)
			i = j
			c.forward(0)
			c.forward(1)
			continue
		}
		ctl, pub, recs := c.round(next, id)
		rounds = append(rounds, ctl)
		publishes = append(publishes, pub)
		records += int64(recs)
		// Convergence: the first round, after flood onset, in which the
		// leaf transmitted at most (1 - converge) of the flood offered to
		// it since the previous round.
		offered := leaf.g.offered[classFlood] - prevOffered
		sent := leaf.eg.sent[classFlood].Load() - prevSent
		prevOffered += offered
		prevSent += sent
		if converge < 0 && next > floodStart && offered > 0 &&
			1-float64(sent)/float64(offered) >= w.hops.converge {
			converge = next - floodStart
		}
		next += w.hops.round
		id++
	}
	end := d.t[n-1]
	sp := tr.begin("dataplane.final_drain", 0)
	drainStart := now()
	c.advance(end, 0)
	r.s["dataplane.final_drain_s"] = since(drainStart)
	tr.end(sp)
	tr.end(rootSpan)
	win.close(r.s, leaf.g.packets)
	leafLimits := leaf.e.InstalledLimits()

	// Untimed: flush every queue down the chain and check each hop.
	c.advance(end+flushTail, 0)
	for _, h := range c.hops {
		snap := h.e.Snapshot()
		st := h.e.Stats()
		h.e.Close()
		er := engineReport{name: h.name, e: h.e, reg: h.reg, eg: h.eg, g: h.g, snap: snap, stats: st}
		er.record(r)
		r.attempted += h.inst.calls
		r.failed += h.inst.fails
		r.s["dataplane.intern_calls"] += float64(h.g.internCalls)
		r.s["dataplane.install_limit_calls"] += float64(h.inst.calls)
		scrape(r.s, h.reg)
		for _, origin := range []int{1, 2, 3} {
			r.s["cluster.stale_dropped"] += float64(h.reg.CounterValue(
				fmt.Sprintf(`floc_cluster_feedback_stale_dropped_total{peer="%d"}`, origin)))
		}
		if h == root {
			coreMetrics(r.s, snap)
		}
	}
	// The paper's metric at the protected link (the root), against what
	// the sources offered at the leaf.
	r.s["legit_share"] = float64(root.eg.sent[classLegit].Load()) / float64(leaf.g.offered[classLegit])
	r.s["attack_admit_frac"] = float64(root.eg.sent[classFlood].Load()) / float64(leaf.g.offered[classFlood])
	r.s["defense.limit_drop_frac"] = float64(leaf.e.Stats().LimitDrops) / float64(leaf.g.packets)
	var handled, misses int64
	for _, h := range c.hops {
		handled += h.g.packets + h.g.malformed
		misses += h.g.misses
	}
	r.s["wire.resolve_miss_frac"] = float64(misses) / float64(handled)
	var encNs, encN int64
	for _, h := range c.hops[:2] {
		encNs += h.eg.encNs.Load()
		encN += h.eg.encN.Load()
	}
	if encN > 0 {
		r.s["wire.egress_encode_ns_per_pkt"] = float64(encNs) / float64(encN)
	}

	r.s["dataplane.snapshot_ms_p50"] = 1e3 * quantile(c.durs["dataplane.snapshot"], 0.5)
	r.s["dataplane.install_limit_us_p50"] = 1e6 * quantile(c.durs["dataplane.install_limit"], 0.5)
	r.s["dataplane.sweep_us_p50"] = 1e6 * quantile(c.durs["dataplane.sweep"], 0.5)
	r.s["cluster.handle_frame_us_p50"] = 1e6 * quantile(c.durs["cluster.handle_frame"], 0.5)
	r.s["cluster.publish_ms_p50"] = 1e3 * median(publishes)
	r.s["cluster.control_round_p50_ms"] = 1e3 * quantile(rounds, 0.5)
	r.s["cluster.control_round_p90_ms"] = 1e3 * quantile(rounds, 0.9)
	r.s["cluster.rounds"] = float64(len(rounds))
	r.attempted += c.tp.frames
	r.failed += c.frameErrs
	r.s["cluster.frames_sent"] = float64(c.tp.frames)
	r.s["cluster.records_sent"] = float64(records)
	r.s["cluster.records_applied"] = float64(c.applied)
	r.s["cluster.retransmits"] = float64(c.retransmits)

	if converge < 0 {
		r.problems = append(r.problems, fmt.Sprintf("the leaf never dropped %.0f%% of the flood within one round", 100*w.hops.converge))
	} else {
		r.s["cluster.converge_s"] = converge
	}
	// Pushback must reach the leaf for every flood path. The set of
	// limits the leaf holds at any one time is smaller: once the leaf
	// sheds a path, the root sees it calm and releases it, and limits it
	// again when the flood returns (see defense.leaf_limits_end).
	var limited [numClasses]int
	seen := map[string]bool{}
	for _, p := range leaf.inst.limited {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			limited[in.tr.classOf[k]]++
		}
	}
	if limited[classFlood] < w.mix.floodPaths {
		r.problems = append(r.problems, fmt.Sprintf("the leaf limited %d of the %d flood paths", limited[classFlood], w.mix.floodPaths))
	}
	r.s["defense.leaf_limited_flood_paths"] = float64(limited[classFlood])
	r.s["defense.leaf_limited_legit_paths"] = float64(limited[classLegit])
	r.s["defense.leaf_limits_end"] = float64(leafLimits)
	if len(rounds) < 100 {
		r.problems = append(r.problems, fmt.Sprintf("only %d control rounds, want at least 100", len(rounds)))
	}
	if tr != nil {
		layerMetrics(r.s, tr.fold(), handled)
		r.spans = tr.spans
	}
	// Keep the daemons' state alive for retained_heap_mb, but not the
	// benchmark's own records.
	c.durs, c.tr = nil, nil
	for _, h := range c.hops {
		h.inst.limited, h.g.tr = nil, nil
	}
	r.keep = c
	return r, nil
}

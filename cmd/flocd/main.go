// Command flocd runs the FLoc router as a standalone daemon on the
// sharded multi-core dataplane. Packets arrive as wire-encoded shim
// headers (package wire), either over a UDP socket or from an NDJSON
// capture file, are hashed by path identifier onto per-core router
// shards, and the whole engine's telemetry is served as Prometheus text
// on /metrics.
//
// Live mode — one datagram per wire header, arrival-stamped on receipt:
//
//	flocd -listen :9000 -metrics :9100 -link 100e6 -capacity 512
//
// Offline mode — replay a capture hermetically (arrival times come from
// the capture, so results are reproducible and CI-friendly):
//
//	flocd -gen 10000 -out capture.ndjson
//	flocd -replay capture.ndjson -shards 4 -snapshot -print-metrics
//
// -gen writes a synthetic capture (a deterministic mix of legitimate CBR
// paths and one flooding path) so the pipeline can be exercised without
// a packet source.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"floc/internal/cluster"
	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/ledger"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/wire"
)

// options collects the daemon's resolved flags.
type options struct {
	listen   string
	replay   string
	gen      int
	out      string
	seed     uint64
	shards   int
	linkRate float64 //floc:unit bits/s
	capacity int     //floc:unit packets
	ringSize int     //floc:unit packets
	batch    int     //floc:unit packets
	metrics  string
	snapshot bool
	printMet bool
	ledger   string
	traceCap int
	pprof    bool

	routerID uint
	control  string
	peers    string
	forward  string
	sendto   string
	pace     float64 //floc:unit ratio
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "", "UDP address to receive wire-encoded packets on (live mode)")
	flag.StringVar(&o.replay, "replay", "", "NDJSON capture file to replay (offline mode)")
	flag.IntVar(&o.gen, "gen", 0, "generate a synthetic capture with this many packets and exit")
	flag.StringVar(&o.out, "out", "", "output file for -gen (default stdout)")
	flag.Uint64Var(&o.seed, "seed", 7, "engine and generator seed")
	flag.IntVar(&o.shards, "shards", 0, "dataplane shards (0 = one per core)")
	flag.Float64Var(&o.linkRate, "link", 8e6, "protected link rate in bits/s")
	flag.IntVar(&o.capacity, "capacity", 512, "aggregate buffer capacity in packets")
	flag.IntVar(&o.ringSize, "ring", 1024, "per-shard ring capacity in packets (power of two)")
	flag.IntVar(&o.batch, "batch", 64, "per-shard admission batch size")
	flag.StringVar(&o.metrics, "metrics", "", "HTTP address to serve /metrics and /healthz on (empty = off)")
	flag.BoolVar(&o.snapshot, "snapshot", false, "print the merged router snapshot at exit")
	flag.BoolVar(&o.printMet, "print-metrics", false, "print the metric registry as Prometheus text at exit")
	flag.StringVar(&o.ledger, "ledger", "", "directory to seal the forensic event ledger into (must not hold one already)")
	flag.IntVar(&o.traceCap, "trace", 65536, "per-shard event-trace ring capacity (0 = off; losses count on "+telemetry.TraceDroppedMetric+")")
	flag.BoolVar(&o.pprof, "pprof", false, "also serve net/http/pprof on the -metrics listener")
	flag.UintVar(&o.routerID, "router-id", 0, "this daemon's cluster router ID (nonzero enables the control plane)")
	flag.StringVar(&o.control, "control", "", "UDP address to receive cluster control frames on")
	flag.StringVar(&o.peers, "peers", "", "comma-separated upstream control addresses to push feedback to")
	flag.StringVar(&o.forward, "forward", "", "UDP data address to forward transmitted packets to (the next hop's -listen)")
	flag.StringVar(&o.sendto, "sendto", "", "transmit the -replay capture as live datagrams to this UDP address instead of replaying locally")
	flag.Float64Var(&o.pace, "pace", 1.0, "-sendto time scale: real seconds per capture second (0 = no pacing)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "flocd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.gen > 0 {
		w := io.Writer(os.Stdout)
		if o.out != "" {
			f, err := os.Create(o.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return generateCapture(w, o.gen, o.seed)
	}
	if o.sendto != "" {
		if o.replay == "" {
			return fmt.Errorf("-sendto requires -replay (the capture to transmit)")
		}
		f, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		defer f.Close()
		return sendCapture(f, o.sendto, o.pace)
	}
	if (o.listen == "") == (o.replay == "") {
		return fmt.Errorf("exactly one of -listen or -replay is required (or -gen)")
	}
	if (o.control != "" || o.peers != "") && o.routerID == 0 {
		return fmt.Errorf("-control and -peers require -router-id")
	}
	if o.routerID != 0 && o.listen == "" {
		return fmt.Errorf("cluster mode (-router-id) requires -listen")
	}
	var peers []string
	if o.peers != "" {
		peers = strings.Split(o.peers, ",")
	}

	reg := telemetry.NewRegistry()
	var sealer *ledger.Sealer
	var sink telemetry.EventSink
	if o.ledger != "" {
		s, err := ledger.NewSealer(o.ledger, ledger.SealerOptions{})
		if err != nil {
			return err
		}
		sealer = s
		sink = s
	}
	var egress dataplane.PacketSink
	if o.forward != "" {
		fwd, err := newUDPForwarder(o.forward)
		if err != nil {
			return err
		}
		defer fwd.Close()
		egress = fwd
	}
	rc := core.DefaultConfig(o.linkRate, o.capacity)
	rc.Seed = o.seed
	engine, err := dataplane.New(dataplane.Config{
		Router:        rc,
		Shards:        o.shards,
		RingSize:      o.ringSize,
		Batch:         o.batch,
		BlockOnFull:   o.replay != "", // a capture has no real clock: pace, don't drop
		Telemetry:     reg,
		TraceCapacity: o.traceCap,
		Sink:          sink,
		Egress:        egress,
	})
	if err != nil {
		if sealer != nil {
			sealer.Close()
		}
		return err
	}

	// The daemon's arrival clock: every live timestamp — packet arrivals,
	// control frames, limit leases, health ages — is seconds since this
	// instant, so the clocks of all the daemon's surfaces agree.
	//floclint:allow sim-time the live daemon anchors its arrival clock at startup
	start := time.Now()

	var node *cluster.Node
	if o.routerID != 0 {
		tr := &udpTransport{}
		defer tr.Close()
		node, err = cluster.New(cluster.Config{
			RouterID:   uint32(o.routerID),
			Peers:      peers,
			Transport:  tr,
			Installer:  engine,
			PacketSize: rc.PacketSize,
			Telemetry:  reg,
		})
		if err != nil {
			return err
		}
		if o.control != "" {
			cconn, err := net.ListenPacket("udp", o.control)
			if err != nil {
				return err
			}
			defer cconn.Close()
			go serveControl(cconn, node, start)
			fmt.Fprintf(os.Stderr, "flocd: control on %s, router %d, %d peers\n",
				cconn.LocalAddr(), o.routerID, len(peers))
		}
	}

	if o.metrics != "" {
		h := &health{engine: engine, reg: reg, node: node, start: start}
		srv := &http.Server{Addr: o.metrics, Handler: serveMux(reg, h, o.pprof)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "flocd: metrics:", err)
			}
		}()
		defer srv.Close()
	}

	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		defer f.Close()
		n, malformed, end, err := replayCapture(f, engine, reg)
		if err != nil {
			return err
		}
		engine.Advance(end)
		snap := finish(engine, reg, o.snapshot, o.printMet)
		if err := sealLedger(sealer, o.ledger, snap); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "flocd: replayed %d packets over %.3fs of capture time on %d shards (%d malformed lines skipped)\n",
			n, end, engine.Shards(), malformed)
		return nil
	}

	conn, err := net.ListenPacket("udp", o.listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(os.Stderr, "flocd: listening on %s, %d shards\n", conn.LocalAddr(), engine.Shards())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		<-stop
		conn.Close() // unblocks the read loop
	}()
	var stopLoop chan struct{}
	if node != nil {
		stopLoop = make(chan struct{})
		go clusterLoop(node, engine, start, stopLoop)
	}
	if err := serveUDP(conn, engine, start); err != nil {
		return err
	}
	if stopLoop != nil {
		close(stopLoop) // quiesce the control loop before draining the engine
	}
	snap := finish(engine, reg, o.snapshot, o.printMet)
	return sealLedger(sealer, o.ledger, snap)
}

// finish drains the engine, emits the requested end-of-run reports, and
// returns the merged final snapshot.
func finish(e *dataplane.Engine, reg *telemetry.Registry, snapshot, printMet bool) core.Snapshot {
	e.Drain()
	snap := e.Snapshot()
	e.Close()
	if snapshot {
		fmt.Print(snap.String())
		st := e.Stats()
		fmt.Printf("dataplane: accepted=%d ring-drops=%d processed=%d\n",
			st.Accepted, st.RingDrops, st.Processed)
	}
	if printMet {
		_ = reg.WriteText(os.Stdout)
	}
	return snap
}

// sealLedger closes the sealer, stores the run's claimed snapshot next to
// the ledger, and logs the chain head — the line to publish out-of-band:
// an anchored head is what makes even a coordinated tail truncation of
// ledger and events files detectable later.
func sealLedger(sealer *ledger.Sealer, dir string, snap core.Snapshot) error {
	if sealer == nil {
		return nil
	}
	if err := sealer.Close(); err != nil {
		return err
	}
	if err := ledger.WriteSnapshot(filepath.Join(dir, ledger.SnapshotName), snap); err != nil {
		return err
	}
	head := sealer.Head()
	fmt.Fprintf(os.Stderr, "flocd: ledger: sealed %d segments (%d events) in %s; head %x\n",
		sealer.Segments(), sealer.Events(), dir, head[:])
	return nil
}

// health serves /healthz: a small JSON liveness document summarizing the
// dataplane since start, cheap enough for a tight probe interval. When
// the daemon is clustered, a cluster block reports the control plane's
// receive state: which origins are feeding it, how stale each one is,
// and how many limits are currently installed.
type health struct {
	engine *dataplane.Engine
	reg    *telemetry.Registry
	node   *cluster.Node
	start  time.Time
}

// clusterHealth is the /healthz cluster block: the node's protocol state
// plus the dataplane's installed-limit count.
type clusterHealth struct {
	cluster.Health
	InstalledLimits int `json:"installed_limits"`
}

func (h *health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	st := h.engine.Stats()
	//floclint:allow sim-time the health surface reports real daemon uptime
	up := time.Since(h.start).Seconds() //floc:unit seconds
	var cb *clusterHealth
	if h.node != nil {
		cb = &clusterHealth{
			Health:          h.node.Health(up),
			InstalledLimits: h.engine.InstalledLimits(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status        string         `json:"status"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		Shards        int            `json:"shards"`
		Accepted      int64          `json:"accepted"`
		Processed     int64          `json:"processed"`
		RingDrops     int64          `json:"ring_drops"`
		TraceDropped  int64          `json:"trace_dropped_events"`
		Cluster       *clusterHealth `json:"cluster,omitempty"`
	}{
		Status:        "ok",
		UptimeSeconds: up,
		Shards:        h.engine.Shards(),
		Accepted:      st.Accepted,
		Processed:     st.Processed,
		RingDrops:     st.RingDrops,
		TraceDropped:  h.reg.CounterValue(telemetry.TraceDroppedMetric),
		Cluster:       cb,
	})
}

// serveMux routes the observability listener: /metrics always, /healthz
// when a health source is attached, and the pprof family opt-in (profiling
// endpoints can stall a loaded daemon, so they are never on by default).
func serveMux(reg *telemetry.Registry, h *health, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if h != nil {
		mux.Handle("/healthz", h)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// replayCapture streams a capture into the engine, assigning packet IDs
// in capture order and interning path identifiers so per-packet decode
// stays allocation-light. Malformed capture lines are counted and
// skipped, not fatal: one bad line should not void a long replay. The
// count is returned for the run summary and published per error kind as
// floc_capture_malformed_lines_total.
// floc:unit end seconds
func replayCapture(r io.Reader, e *dataplane.Engine, reg *telemetry.Registry) (n int, malformed int64, end float64, err error) {
	cr := wire.NewCaptureReader(bufio.NewReader(r))
	cr.SkipMalformed(true)
	in := wire.NewInterner()
	var h wire.Header
	for {
		t, err := cr.Next(&h)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, cr.Malformed(), end, err
		}
		ingest(e, in, &h, uint64(n+1), t)
		n++
		end = t
	}
	publishMalformed(reg, cr.MalformedByKind())
	return n, cr.Malformed(), end, nil
}

// publishMalformed registers the malformed-line counter family: the
// total always (so a clean replay exports an explicit zero), plus one
// reason-labeled series per error kind that fired.
func publishMalformed(reg *telemetry.Registry, byKind [wire.NumErrorKinds]int64) {
	const help = "capture lines skipped as malformed during replay"
	var total int64
	for kind, c := range byKind {
		if c == 0 {
			continue
		}
		total += c
		reg.Counter(`floc_capture_malformed_lines_total{reason="`+wire.ErrorKind(kind).String()+`"}`,
			help, "lines").Add(c)
	}
	reg.Counter("floc_capture_malformed_lines_total", help, "lines").Add(total)
}

// serveUDP reads one wire header per datagram until the connection is
// closed. Arrival times are wall-clock seconds since the first datagram:
// the daemon is the one place the repo meets real time, so the sim-time
// ban is lifted locally.
func serveUDP(conn net.PacketConn, e *dataplane.Engine, start time.Time) error {
	buf := make([]byte, 65536) //floc:untrusted
	in := wire.NewInterner()
	var h wire.Header
	id := uint64(0)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// Closed socket is the clean shutdown path.
			return nil
		}
		//floclint:allow taint ReadFrom returns n <= len(buf) by the PacketConn contract; the payload itself is vetted by Decode
		if _, err := wire.Decode(buf[:n], &h); err != nil {
			continue // malformed datagrams are not the daemon's problem
		}
		id++
		//floclint:allow sim-time live dataplane stamps arrivals from the wall clock
		ingest(e, in, &h, id, time.Since(start).Seconds())
	}
}

// ingest is the per-header step of replay and the UDP listener. A path's
// first packet mints its handle on the owning shard router and binds it
// in the producer's interner, so every later packet carries the dense
// handle and admission never hashes the path key.
// floc:unit at seconds
func ingest(e *dataplane.Engine, in *wire.Interner, h *wire.Header, id uint64, at float64) {
	res := in.ResolveFull(h)
	if !res.Bound {
		res.Handle = e.InternPath(res.ID)
		in.BindHandle(h, res.Handle)
	}
	pkt := &netsim.Packet{}
	h.ToPacket(pkt, id, res.ID, res.Key, res.Handle)
	e.Enqueue(pkt, at)
}

// udpTransport carries cluster control frames: it dials each peer once,
// caches the connected socket, and writes one frame per datagram.
// cluster.Node serializes sends under its own lock, but the transport
// locks anyway so it stays safe if that ever changes.
type udpTransport struct {
	mu    sync.Mutex
	conns map[string]net.Conn
}

func (t *udpTransport) Send(peer string, frame []byte) error {
	t.mu.Lock()
	conn := t.conns[peer]
	if conn == nil {
		c, err := net.Dial("udp", peer)
		if err != nil {
			t.mu.Unlock()
			return err
		}
		if t.conns == nil {
			t.conns = map[string]net.Conn{}
		}
		t.conns[peer] = c
		conn = c
	}
	t.mu.Unlock()
	_, err := conn.Write(frame)
	return err
}

func (t *udpTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		c.Close()
	}
}

// udpForwarder is the dataplane egress sink for a chained deployment:
// every packet the router transmits is re-encoded as a wire header and
// forwarded to the next hop's data port, so one daemon's egress becomes
// another's ingress (the multi-router tree of the cluster harness).
type udpForwarder struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func newUDPForwarder(addr string) (*udpForwarder, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &udpForwarder{conn: conn, buf: make([]byte, 0, wire.MaxEncodedLen)}, nil
}

// Emit implements dataplane.PacketSink. Shard workers call it
// concurrently; the mutex serializes the shared encode buffer and the
// socket. Encode and send failures are dropped silently — a forwarding
// daemon must never stall its own transmit loop on the next hop.
// floc:unit now seconds
func (f *udpForwarder) Emit(pkt *netsim.Packet, now float64) {
	var h wire.Header
	if err := wire.FromPacket(&h, pkt); err != nil {
		return
	}
	f.mu.Lock()
	if b, err := wire.MarshalAppend(f.buf[:0], &h); err == nil {
		f.buf = b
		_, _ = f.conn.Write(b)
	}
	f.mu.Unlock()
}

func (f *udpForwarder) Close() { _ = f.conn.Close() }

// serveControl feeds received control frames into the cluster node,
// stamped on the daemon's shared arrival clock. Undecodable frames are
// dropped by HandleFrame; a closed socket ends the loop.
func serveControl(conn net.PacketConn, node *cluster.Node, start time.Time) {
	buf := make([]byte, wire.MaxControlEncodedLen+1) //floc:untrusted
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		//floclint:allow sim-time live control plane stamps arrivals from the wall clock
		now := time.Since(start).Seconds() //floc:unit seconds
		//floclint:allow taint ReadFrom returns n <= len(buf) by the PacketConn contract; the frame itself is vetted by DecodeControl
		_, _ = node.HandleFrame(buf[:n], now)
	}
}

// clusterLoop drives the node's periodic duties on the arrival clock:
// publish fresh feedback derived from the engine snapshot, retransmit
// pending frames, and sweep expired limit leases.
func clusterLoop(node *cluster.Node, e *dataplane.Engine, start time.Time, stop <-chan struct{}) {
	//floclint:allow sim-time the live control loop paces itself on the wall clock
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		//floclint:allow sim-time live control plane stamps publishes from the wall clock
		now := time.Since(start).Seconds() //floc:unit seconds
		node.Publish(e.Snapshot(), now)
		node.Tick(now)
		e.SweepLimits(now)
	}
}

// sendCapture transmits a capture to a daemon's data port as one UDP
// datagram per packet, paced by the capture timestamps scaled by pace
// (real seconds per capture second; 0 disables pacing). This is the
// traffic source of the cluster harness: -gen writes the capture, one
// flocd sends it live, the daemon tree defends against it.
func sendCapture(r io.Reader, addr string, pace float64) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cr := wire.NewCaptureReader(bufio.NewReader(r))
	cr.SkipMalformed(true)
	var h wire.Header
	buf := make([]byte, 0, wire.MaxEncodedLen)
	//floclint:allow sim-time the paced sender replays capture time on the wall clock
	start := time.Now()
	sent := 0
	for {
		t, err := cr.Next(&h)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if pace > 0 {
			due := time.Duration(t * pace * float64(time.Second))
			//floclint:allow sim-time the paced sender replays capture time on the wall clock
			if d := due - time.Since(start); d > 0 {
				//floclint:allow sim-time the paced sender replays capture time on the wall clock
				time.Sleep(d)
			}
		}
		b, err := wire.MarshalAppend(buf[:0], &h)
		if err != nil {
			continue
		}
		buf = b
		if _, err := conn.Write(b); err != nil {
			return err
		}
		sent++
	}
	fmt.Fprintf(os.Stderr, "flocd: sent %d packets to %s (%d malformed lines skipped)\n",
		sent, addr, cr.Malformed())
	return nil
}

// generateCapture writes a deterministic synthetic capture: nPaths
// legitimate CBR senders plus one flooding path at 8x their rate, over
// enough virtual time to exercise the control loop.
func generateCapture(w io.Writer, packets int, seed uint64) error {
	cw := wire.NewCaptureWriter(w)
	src := rng.New(seed)
	const nPaths = 8
	paths := make([][]pathid.ASN, nPaths+1)
	for i := range paths {
		paths[i] = []pathid.ASN{pathid.ASN(100 + i), pathid.ASN(10 + i%3), 1}
	}
	// Per-tick weights: the last path (the flooder) sends 8 packets for
	// every legitimate path's one.
	t := 0.0
	written := 0
	for written < packets {
		t += 0.002
		for p := 0; p <= nPaths && written < packets; p++ {
			reps := 1
			if p == nPaths {
				reps = 8
			}
			for r := 0; r < reps && written < packets; r++ {
				h := wire.Header{
					Version: wire.Version1,
					Kind:    netsim.KindUDP,
					Src:     uint32(p + 1),
					Dst:     9999,
					Length:  uint16(600 + src.Intn(900)),
					PathLen: uint8(len(paths[p])),
				}
				copy(h.Path[:], paths[p])
				if p == nPaths {
					h.Flags |= wire.FlagAttack
				}
				if err := cw.Write(t, &h); err != nil {
					return err
				}
				written++
			}
		}
	}
	return cw.Flush()
}

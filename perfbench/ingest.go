package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"floc/internal/dataplane"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/wire"
)

// chunk is how many packets the ingest loop stages per step. Each step
// runs one layer over the whole chunk (parse or decode, then resolve,
// then enqueue), so a traced run reads the clock three times per chunk
// rather than per packet.
const chunk = 256

// ingestor is one producer feeding one engine, the way flocd's
// replayCapture and serveUDP do: decode a header, resolve its path
// through a wire.Interner, intern new paths with the engine (a barrier
// on the owning shard), build a netsim.Packet and Enqueue it.
type ingestor struct {
	e  *dataplane.Engine
	in *wire.Interner
	tr *tracer

	hdrs [chunk]wire.Header
	ts   [chunk]float64 //floc:unit seconds
	res  [chunk]wire.Resolved
	id   uint64

	packets     int64 // packets handed to Enqueue
	malformed   int64
	ringDrops   int64
	internCalls int64
	internFails int64 // InternPath returned 0 for a non-empty path
	misses      int64 // ResolveFull found no bound handle
	offered     [numClasses]int64
}

func newIngestor(e *dataplane.Engine, tr *tracer) *ingestor {
	return &ingestor{e: e, in: wire.NewInterner(), tr: tr}
}

// feedCapture replays an NDJSON capture, as flocd -replay does. It
// returns the last arrival time.
// floc:unit end seconds
func (g *ingestor) feedCapture(r io.Reader) (end float64, err error) {
	cr := wire.NewCaptureReader(r)
	cr.SkipMalformed(true)
	for c := int64(0); ; c++ {
		sp := g.tr.begin("wire.parse", c)
		n := 0
		for n < chunk {
			t, err := cr.Next(&g.hdrs[n])
			if err == io.EOF {
				break
			}
			if err != nil {
				g.tr.end(sp)
				return end, err
			}
			g.ts[n] = t
			n++
		}
		g.tr.end(sp)
		if n == 0 {
			break
		}
		g.resolve(n, c)
		g.enqueue(n, c)
		end = g.ts[n-1]
	}
	g.malformed += cr.Malformed()
	return end, nil
}

// feedFrames ingests datagrams [from, to) of d, as flocd's serveUDP does
// after each ReadFrom, with the capture time as the arrival stamp.
func (g *ingestor) feedFrames(d *datagrams, from, to int) {
	for c := from; c < to; {
		sp := g.tr.begin("wire.decode", int64(c/chunk))
		n := 0
		for ; c < to && n < chunk; c++ {
			if _, err := wire.Decode(d.frame(c), &g.hdrs[n]); err != nil {
				g.malformed++
				continue
			}
			g.ts[n] = d.t[c]
			n++
		}
		g.tr.end(sp)
		g.resolve(n, int64(c/chunk))
		g.enqueue(n, int64(c/chunk))
	}
}

// resolve maps the chunk's headers to canonical path identities and
// router handles, interning first sightings with the engine.
func (g *ingestor) resolve(n int, c int64) {
	sp := g.tr.begin("wire.resolve", c)
	for i := 0; i < n; i++ {
		r := g.in.ResolveFull(&g.hdrs[i])
		if !r.Bound {
			g.misses++
			r.Handle = g.intern(r.ID, c)
			g.in.BindHandle(&g.hdrs[i], r.Handle)
		}
		g.res[i] = r
	}
	g.tr.end(sp)
}

func (g *ingestor) intern(id pathid.PathID, c int64) uint32 {
	sp := g.tr.begin("dataplane.intern", c)
	h := g.e.InternPath(id)
	g.tr.end(sp)
	g.internCalls++
	if h == 0 && len(id) > 0 {
		g.internFails++
	}
	return h
}

// enqueue builds one packet per header and hands it to the engine.
func (g *ingestor) enqueue(n int, c int64) {
	sp := g.tr.begin("dataplane.enqueue", c)
	for i := 0; i < n; i++ {
		pkt := &netsim.Packet{}
		g.id++
		r := &g.res[i]
		g.hdrs[i].ToPacket(pkt, g.id, r.ID, r.Key, r.Handle)
		if !g.e.Enqueue(pkt, g.ts[i]) {
			g.ringDrops++
		}
		g.packets++
		g.offered[classOfSrc(pkt.Src)]++
	}
	g.tr.end(sp)
}

// egress is an engine's dataplane.PacketSink. It counts transmitted
// packets by class and, when forwarding, re-encodes each one as a wire
// frame into a pending buffer that the next hop's ingestor drains: the
// in-memory stand-in for flocd -forward's socket.
type egress struct {
	forward bool
	timed   bool // sample the encode cost (traced runs only)

	sent   [numClasses]atomic.Int64
	emits  atomic.Int64
	encNs  atomic.Int64 // summed over sampled encodes
	encN   atomic.Int64 // sampled encodes
	encErr atomic.Int64

	mu      sync.Mutex
	pending datagrams
	spare   datagrams
}

// encodeSample is the egress-encode sampling stride in traced runs.
const encodeSample = 16

func newEgress(forward, timed bool) *egress {
	eg := &egress{forward: forward, timed: timed}
	eg.pending.off = []int32{0}
	eg.spare.off = []int32{0}
	return eg
}

// Emit implements dataplane.PacketSink; shard workers call it.
// floc:unit now seconds
func (eg *egress) Emit(pkt *netsim.Packet, now float64) {
	eg.sent[classOfSrc(pkt.Src)].Add(1)
	if !eg.forward {
		return
	}
	n := eg.emits.Add(1)
	var start time.Time
	sample := eg.timed && n%encodeSample == 0
	if sample {
		start = time.Now() //floclint:allow sim-time the benchmark measures wall-clock time
	}
	var h wire.Header
	if err := wire.FromPacket(&h, pkt); err != nil {
		eg.encErr.Add(1)
		return
	}
	eg.mu.Lock()
	b, err := wire.MarshalAppend(eg.pending.buf, &h)
	if err == nil {
		eg.pending.buf = b
		eg.pending.off = append(eg.pending.off, int32(len(b)))
		eg.pending.t = append(eg.pending.t, now)
	}
	eg.mu.Unlock()
	if err != nil {
		eg.encErr.Add(1)
		return
	}
	if sample {
		eg.encNs.Add(int64(time.Since(start))) //floclint:allow sim-time the benchmark measures wall-clock time
		eg.encN.Add(1)
	}
}

// take swaps out the frames emitted so far. The returned buffer stays
// valid until the next take.
func (eg *egress) take() *datagrams {
	eg.mu.Lock()
	eg.spare.buf = eg.spare.buf[:0]
	eg.spare.off = eg.spare.off[:1]
	eg.spare.t = eg.spare.t[:0]
	eg.pending, eg.spare = eg.spare, eg.pending
	eg.mu.Unlock()
	return &eg.spare
}

func (eg *egress) total() int64 {
	var n int64
	for i := range eg.sent {
		n += eg.sent[i].Load()
	}
	return n
}

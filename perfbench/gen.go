package main

import (
	"bytes"
	"fmt"
	"slices"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/wire"
)

// class labels a generated path. Only the benchmark's accounting reads
// it: the engine sees plain wire headers, with FlagAttack as the flood
// label (no admission decision reads that flag).
type class uint8

const (
	classLegit class = iota
	classFlood
	classChurn
	numClasses
)

// Source address ranges encode the class, so an egress sink can count a
// transmitted packet's class from the packet alone.
const (
	legitSrcBase = 1 << 20
	floodSrcBase = 2 << 20
	churnSrcBase = 1 << 30
	dstAddr      = 9999
)

func classOfSrc(src uint32) class {
	switch {
	case src >= churnSrcBase:
		return classChurn
	case src >= floodSrcBase:
		return classFlood
	default:
		return classLegit
	}
}

// mix describes one workload's traffic. Rates are per path, in packets
// per second of capture time; arrivals are jittered CBR (each gap is
// uniform in [0.5, 1.5] of the mean), so no two seeds give the same
// schedule but every seed gives the same load.
type mix struct {
	legitPaths int
	legitRate  float64 //floc:unit packets/s
	floodPaths int
	floodRate  float64 //floc:unit packets/s
	floodStart float64 //floc:unit seconds
	flows      int     // distinct sources per legit or flood path
	duration   float64 //floc:unit seconds

	tailPaths int     // churn-tail paths, each alive only briefly
	tailPkts  int     // packets per churn-tail path
	tailGap   float64 //floc:unit seconds between a tail path's packets
}

// genPkt is one generated packet in compact form.
type genPkt struct {
	t    float64 //floc:unit seconds
	path uint32
	src  uint32
	size uint16 //floc:unit bytes
}

// traffic is a generated workload: its paths, their classes, and the
// time-ordered packets.
type traffic struct {
	paths   []pathid.PathID
	keys    []string
	classOf map[string]class // path key -> class
	pkts    []genPkt
	offered [numClasses]int64
	end     float64 //floc:unit seconds
}

// generate builds the traffic for m from seed. Path identifiers are
// three domains long (origin, transit, the protected domain 1), like
// flocd -gen's.
func generate(m mix, seed uint64) *traffic {
	src := rng.New(seed)
	tr := &traffic{classOf: map[string]class{}}
	addPath := func(p pathid.PathID, c class) uint32 {
		tr.paths = append(tr.paths, p)
		tr.keys = append(tr.keys, p.Key())
		tr.classOf[p.Key()] = c
		return uint32(len(tr.paths) - 1)
	}
	cbr := func(path, srcBase uint32, rate, from float64) {
		gap := 1 / rate
		for t := from + src.Float64()*gap; t < m.duration; t += gap * (0.5 + src.Float64()) {
			tr.pkts = append(tr.pkts, genPkt{
				t:    t,
				path: path,
				src:  srcBase + uint32(src.Intn(m.flows)),
				size: uint16(600 + src.Intn(901)),
			})
		}
	}
	for i := 0; i < m.legitPaths; i++ {
		p := addPath(pathid.New(pathid.ASN(100+i), pathid.ASN(10+i%6), 1), classLegit)
		cbr(p, legitSrcBase+uint32(i*m.flows), m.legitRate, 0)
	}
	for i := 0; i < m.floodPaths; i++ {
		p := addPath(pathid.New(pathid.ASN(10000+i), pathid.ASN(20+i%8), 1), classFlood)
		cbr(p, floodSrcBase+uint32(i*m.flows), m.floodRate, m.floodStart)
	}
	if m.tailPaths > 0 {
		// The rolling tail: path i is born at an even spacing over the
		// capture and sends tailPkts packets tailGap apart, then is
		// never seen again.
		spacing := (m.duration - float64(m.tailPkts)*m.tailGap) / float64(m.tailPaths)
		for i := 0; i < m.tailPaths; i++ {
			p := addPath(pathid.New(pathid.ASN(1_000_000+i), pathid.ASN(30+i%16), 1), classChurn)
			born := float64(i)*spacing + src.Float64()*spacing
			for k := 0; k < m.tailPkts; k++ {
				tr.pkts = append(tr.pkts, genPkt{
					t:    born + float64(k)*m.tailGap,
					path: p,
					src:  churnSrcBase + uint32(i),
					size: uint16(600 + src.Intn(901)),
				})
			}
		}
	}
	slices.SortStableFunc(tr.pkts, func(a, b genPkt) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return 0
	})
	for _, p := range tr.pkts {
		tr.offered[tr.classOf[tr.keys[p.path]]]++
	}
	if n := len(tr.pkts); n > 0 {
		tr.end = tr.pkts[n-1].t
	}
	return tr
}

// header fills h with packet p's wire header.
func (tr *traffic) header(p genPkt, h *wire.Header) {
	path := tr.paths[p.path]
	*h = wire.Header{
		Version: wire.Version1,
		Kind:    netsim.KindUDP,
		Src:     p.src,
		Dst:     dstAddr,
		Length:  p.size,
		PathLen: uint8(len(path)),
	}
	copy(h.Path[:], path)
	if classOfSrc(p.src) == classFlood {
		h.Flags |= wire.FlagAttack
	}
}

// capture encodes the traffic as an NDJSON capture, the flocd -replay
// input format.
func (tr *traffic) capture() ([]byte, error) {
	var buf bytes.Buffer
	cw := wire.NewCaptureWriter(&buf)
	var h wire.Header
	for _, p := range tr.pkts {
		tr.header(p, &h)
		if err := cw.Write(p.t, &h); err != nil {
			return nil, err
		}
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// datagrams holds the traffic as binary wire frames, one per packet, as
// a UDP reader sees them after ReadFrom: frame i is
// buf[off[i]:off[i+1]], arriving at capture time t[i].
type datagrams struct {
	buf []byte
	off []int32
	t   []float64 //floc:unit seconds
}

func (d *datagrams) len() int { return len(d.t) }

func (d *datagrams) frame(i int) []byte { return d.buf[d.off[i]:d.off[i+1]] }

// datagrams encodes the traffic as binary wire frames.
func (tr *traffic) datagrams() (*datagrams, error) {
	d := &datagrams{
		buf: make([]byte, 0, len(tr.pkts)*(20+4*3)),
		off: make([]int32, 1, len(tr.pkts)+1),
		t:   make([]float64, 0, len(tr.pkts)),
	}
	var h wire.Header
	for _, p := range tr.pkts {
		tr.header(p, &h)
		b, err := wire.MarshalAppend(d.buf, &h)
		if err != nil {
			return nil, fmt.Errorf("encoding generated packet: %w", err)
		}
		d.buf = b
		d.off = append(d.off, int32(len(d.buf)))
		d.t = append(d.t, p.t)
	}
	return d, nil
}

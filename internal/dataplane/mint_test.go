package dataplane

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// TestConcurrentMintingAgrees has several producers mint handles for the
// same fresh paths, in different orders, and enqueue under them while the
// workers admit. Every producer must get one non-zero handle per path,
// the same one, and every packet must reach its path's router state.
func TestConcurrentMintingAgrees(t *testing.T) {
	const producers, nPaths = 4, 1000
	e, err := New(Config{Router: core.DefaultConfig(1e9, 4096), Shards: 2, RingSize: 64, BlockOnFull: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	paths := make([]pathid.PathID, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(1000+i), pathid.ASN(10+i%7), 1)
	}
	handles := make([][]uint32, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		handles[p] = make([]uint32, nPaths)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < nPaths; j++ {
				i := (j + p*nPaths/producers) % nPaths
				h := e.InternPath(paths[i])
				handles[p][i] = h
				pkt := &netsim.Packet{Src: uint32(p + 1), Dst: 9, Size: 100, Kind: netsim.KindUDP,
					Path: paths[i], PathKey: paths[i].Key(), PathHandle: h}
				if !e.Enqueue(pkt, 0) {
					t.Errorf("producer %d: Enqueue refused under BlockOnFull", p)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for i, path := range paths {
		if handles[0][i] == 0 {
			t.Fatalf("path %v got handle 0", path)
		}
		for p := 1; p < producers; p++ {
			if handles[p][i] != handles[0][i] {
				t.Fatalf("path %v: producer %d got handle %#x, producer 0 got %#x",
					path, p, handles[p][i], handles[0][i])
			}
		}
	}
	e.Drain()
	if st := e.Stats(); st.Processed != producers*nPaths || st.RingDrops != 0 {
		t.Fatalf("stats %+v, want %d processed and no ring drops", st, producers*nPaths)
	}
	snap := e.Snapshot()
	if len(snap.Paths) != nPaths {
		t.Fatalf("%d paths in the snapshot, want %d", len(snap.Paths), nPaths)
	}
	for _, p := range snap.Paths {
		if n := p.AdmittedPackets + p.DroppedPackets; n != producers {
			t.Fatalf("path %s: %d packets reached its state, want %d", p.Key, n, producers)
		}
	}
}

// TestMintedHandlesMatchHandlelessAdmission pins minting off the barrier
// to the string-keyed path: one producer at Batch 1, minting each path's
// handle on first sighting as flocd does, must leave the engine in
// exactly the state the same traffic leaves it in with PathHandle 0.
func TestMintedHandlesMatchHandlelessAdmission(t *testing.T) {
	// Paths join one per 10 ms until 40 send every 4 ms: the link
	// congests while fresh paths are still being minted.
	var sc []arrival
	id := uint64(0)
	for k := 0; k < 750; k++ {
		at := 0.004 * float64(k)
		for p := 0; p < 40 && p <= k*2/5; p++ {
			path := pathid.New(pathid.ASN(200+p), pathid.ASN(20+p%5), 1)
			id++
			sc = append(sc, arrival{at: at, pkt: netsim.Packet{
				ID: id, Src: uint32(p + 1), Dst: 9999, Size: 1000,
				Kind: netsim.KindUDP, Path: path, PathKey: path.Key(),
			}})
		}
	}
	run := func(mint bool) core.Snapshot {
		e, err := New(Config{Router: testRouterConfig(), Shards: 2, Batch: 1, BlockOnFull: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		minted := map[string]uint32{}
		for i := range sc {
			pkt := sc[i].pkt
			if mint {
				h, ok := minted[pkt.PathKey]
				if !ok {
					h = e.InternPath(pkt.Path)
					minted[pkt.PathKey] = h
				}
				pkt.PathHandle = h
			}
			e.Enqueue(&pkt, sc[i].at)
		}
		e.Advance(3.5)
		return e.Snapshot()
	}
	want, got := run(false), run(true)
	if want.Drops["no-token"]+want.Drops["preferential"]+want.Drops["random-threshold"] == 0 {
		t.Fatal("scenario did not congest; test has no teeth")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("minted handles changed admission:\n got %+v\nwant %+v", got, want)
	}
}

// TestBlockOnFullParksWithoutLoss drives a 2-slot ring from 4 producers:
// parked producers must all be woken and every packet admitted.
func TestBlockOnFullParksWithoutLoss(t *testing.T) {
	const producers, perProducer = 4, 5000
	e, err := New(Config{Router: testRouterConfig(), Shards: 1, RingSize: 2, BlockOnFull: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			path := pathid.New(pathid.ASN(300+p), 1)
			for i := 0; i < perProducer; i++ {
				pkt := &netsim.Packet{Src: uint32(p + 1), Dst: 2, Size: 1000, Kind: netsim.KindUDP,
					Path: path, PathKey: path.Key()}
				if !e.Enqueue(pkt, 0) {
					t.Errorf("producer %d: Enqueue refused under BlockOnFull", p)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	e.Drain()
	st := e.Stats()
	if st.Accepted != producers*perProducer || st.RingDrops != 0 || st.Processed != st.Accepted {
		t.Fatalf("stats %+v: want accepted = processed = %d offered, no ring drops",
			st, producers*perProducer)
	}
}

// stallSink blocks every Emit until release is closed, signalling entered
// the first time, so a test can hold a worker mid-batch.
type stallSink struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

// floc:unit now seconds
func (s *stallSink) Emit(pkt *netsim.Packet, now float64) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

// TestCloseWakesParkedProducer parks a BlockOnFull producer on a full
// ring whose worker is stalled in its egress sink: Close must wake it,
// and its Enqueue must report false.
func TestCloseWakesParkedProducer(t *testing.T) {
	sink := &stallSink{entered: make(chan struct{}), release: make(chan struct{})}
	e, err := New(Config{Router: testRouterConfig(), Shards: 1, RingSize: 2, Batch: 1,
		BlockOnFull: true, Egress: sink})
	if err != nil {
		t.Fatal(err)
	}
	path := pathid.New(7, 1)
	pkt := func() *netsim.Packet {
		return &netsim.Packet{Src: 1, Dst: 2, Size: 1000, Kind: netsim.KindUDP, Path: path, PathKey: path.Key()}
	}
	// The first packet is queued at t=0; serving the second one's batch
	// at t=1 transmits it, and the worker stalls in Emit.
	e.Enqueue(pkt(), 0)
	e.Enqueue(pkt(), 1)
	<-sink.entered
	for i := 0; i < 2; i++ { // fill the ring behind the stalled worker
		if !e.Enqueue(pkt(), 1) {
			t.Fatal("Enqueue refused with ring space free")
		}
	}
	result := make(chan bool)
	go func() { result <- e.Enqueue(pkt(), 1) }()
	for e.shards[0].waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // past the producer's short spin: it parks
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case ok := <-result:
		if ok {
			t.Fatal("parked Enqueue reported success after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the parked producer")
	}
	close(sink.release)
	<-closed
}

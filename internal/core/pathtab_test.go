package core

import (
	"sync"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

// TestInternPathConcurrentWithAdmission mints handles from several
// goroutines while the router's own goroutine admits packets for those
// paths, handle-stamped and handle-less alike. Each path must get one
// non-zero handle, whichever goroutine asked first, and its state must
// grow in lazily at that handle's index.
func TestInternPathConcurrentWithAdmission(t *testing.T) {
	const minters, nPaths = 4, 500
	r, err := NewRouter(DefaultConfig(1e9, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]pathid.PathID, nPaths)
	for i := range paths {
		paths[i] = pathid.New(pathid.ASN(500+i), pathid.ASN(1+i%9), 1)
	}
	type minted struct {
		path   int
		handle uint32
	}
	out := make(chan minted, 64)
	handles := make([][]uint32, minters)
	var wg sync.WaitGroup
	for m := 0; m < minters; m++ {
		handles[m] = make([]uint32, nPaths)
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for j := 0; j < nPaths; j++ {
				i := (nPaths - 1 - j + m*nPaths/minters) % nPaths
				handles[m][i] = r.InternPath(paths[i])
				out <- minted{i, handles[m][i]}
			}
		}(m)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	// This goroutine is the router's: every minted handle is presented at
	// once, and every other packet carries no handle at all.
	n := 0
	for mt := range out {
		pkt := &netsim.Packet{Src: 1, Dst: 2, Size: 100, Kind: netsim.KindUDP,
			Path: paths[mt.path], PathKey: paths[mt.path].Key()}
		if n%2 == 0 {
			pkt.PathHandle = mt.handle
		}
		r.Enqueue(pkt, 0)
		n++
	}
	for i, path := range paths {
		h := handles[0][i]
		if h == 0 {
			t.Fatalf("path %v got handle 0", path)
		}
		for m := 1; m < minters; m++ {
			if handles[m][i] != h {
				t.Fatalf("path %v: minter %d got %#x, minter 0 got %#x", path, m, handles[m][i], h)
			}
		}
		if ps := r.origins.byHandle(h); ps == nil || ps.key != path.Key() {
			t.Fatalf("path %v: handle %#x resolves to %v", path, h, ps)
		}
	}
	if got := r.Snapshot().Arrived; got != minters*nPaths {
		t.Fatalf("router saw %d arrivals, want %d", got, minters*nPaths)
	}
}

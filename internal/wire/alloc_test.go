package wire

import (
	"bytes"
	"io"
	"testing"

	"floc/internal/netsim"
)

// The codec carries a zero-allocation contract on its //floc:hotpath
// functions: decode into a caller-owned Header, marshal into a
// caller-owned buffer, and steady-state interner hits must not touch the
// heap. floclint's hotpath rule enforces this statically; these gates
// enforce it against the compiler's actual escape analysis.

func TestZeroAllocDecode(t *testing.T) {
	h := sampleHeader()
	buf, err := MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := Decode(buf, &got); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Decode allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocMarshalAppend(t *testing.T) {
	h := sampleHeader()
	dst := make([]byte, 0, MaxEncodedLen)
	if avg := testing.AllocsPerRun(200, func() {
		out, err := MarshalAppend(dst[:0], &h)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty encoding")
		}
	}); avg != 0 {
		t.Fatalf("MarshalAppend allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocInternerResolve(t *testing.T) {
	h := sampleHeader()
	in := NewInterner()
	in.Resolve(&h) // first sighting interns (the sanctioned cold path)
	if avg := testing.AllocsPerRun(200, func() {
		if _, key := in.Resolve(&h); key == "" {
			t.Fatal("empty key")
		}
	}); avg != 0 {
		t.Fatalf("Interner.Resolve steady state allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocFromPacket(t *testing.T) {
	h := sampleHeader()
	var pkt netsim.Packet
	pkt.Size = int(h.Length)
	pkt.Kind = h.Kind
	var out Header
	if avg := testing.AllocsPerRun(200, func() {
		pkt2 := pkt
		if err := FromPacket(&out, &pkt2); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("FromPacket allocates %.1f times per op, want 0", avg)
	}
}

// repeatReader serves data over and over, so a CaptureReader on it
// never reaches the end of its input.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// canonicalCapture returns a reader cycling through CaptureWriter lines
// for the sample header at capture-like times.
func canonicalCapture(tb testing.TB) io.Reader {
	tb.Helper()
	h := sampleHeader()
	var buf bytes.Buffer
	cw := NewCaptureWriter(&buf)
	for i := 0; i < 1024; i++ {
		if err := cw.Write(float64(i)*0.000723+0.5, &h); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return &repeatReader{data: buf.Bytes()}
}

func TestZeroAllocCaptureNext(t *testing.T) {
	cr := NewCaptureReader(canonicalCapture(t))
	var h Header
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := cr.Next(&h); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureReader.Next on canonical lines allocates %.2f times per op, want 0", avg)
	}
}

// BenchmarkCaptureNext is the ingest_parse family of the perf baseline
// (scripts/bench-snapshot.sh): ns/op to read one canonical capture line,
// the per-packet parse cost of flocd -replay.
func BenchmarkCaptureNext(b *testing.B) {
	cr := NewCaptureReader(canonicalCapture(b))
	var h Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cr.Next(&h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is the codec half of the perf baseline
// (scripts/bench-snapshot.sh): ns/op to decode one representative header
// with a path and capability trailer.
func BenchmarkWireDecode(b *testing.B) {
	h := sampleHeader()
	buf, err := MarshalAppend(nil, &h)
	if err != nil {
		b.Fatal(err)
	}
	var got Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMarshalAppend measures the encode direction into a
// recycled buffer, the shape flocd's transmit path uses.
func BenchmarkWireMarshalAppend(b *testing.B) {
	h := sampleHeader()
	dst := make([]byte, 0, MaxEncodedLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MarshalAppend(dst[:0], &h)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

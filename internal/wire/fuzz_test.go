package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// fuzzSeeds returns a few valid encoded headers so the corpus starts in
// the interesting region of the input space.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	hs := []Header{
		{Version: Version1, Kind: netsim.KindSYN, Length: 40},
		sampleHeader(),
		{Version: Version1, Flags: FlagPriority, Kind: netsim.KindData, Src: 1, Dst: 2, Length: 0xffff, PathLen: MaxPathLen},
	}
	out := make([][]byte, 0, len(hs))
	for i := range hs {
		b, err := MarshalAppend(nil, &hs[i])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzWireDecode feeds arbitrary bytes to Decode. Decode must never
// panic, and anything it accepts must re-encode to exactly the bytes it
// consumed (decode is the partial inverse of marshal).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{Version1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		n, err := Decode(data, &h)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if n != h.EncodedLen() {
			t.Fatalf("consumed %d bytes but EncodedLen = %d", n, h.EncodedLen())
		}
		re, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatalf("accepted header fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzWireRoundTrip builds a canonical header from fuzzed fields and
// checks marshal∘decode is the identity.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint32(1), uint32(2), uint16(40), uint8(0), uint64(0), uint64(0), uint8(0), uint64(0))
	f.Add(uint8(7), uint8(5), uint32(0xffffffff), uint32(0), uint16(0xffff), uint8(MaxPathLen), uint64(1), uint64(2), uint8(3), uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, flags, kind uint8, src, dst uint32, length uint16, pathLen uint8, c0, c1 uint64, slot uint8, pathSeed uint64) {
		h := Header{
			Version: Version1,
			Flags:   Flags(flags) & knownFlags,
			Kind:    netsim.KindSYN + netsim.PacketKind(kind%5),
			Src:     src,
			Dst:     dst,
			Length:  length,
			PathLen: pathLen % (MaxPathLen + 1),
		}
		if h.Length == 0 {
			h.Length = 1
		}
		// Derive path entries from the seed with a cheap mix so distinct
		// seeds exercise distinct paths.
		x := pathSeed
		for i := 0; i < int(h.PathLen); i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Path[i] = pathid.ASN(uint32(x >> 32))
		}
		if h.Flags&FlagCapability != 0 {
			h.Cap = capability.Capability{C0: c0, C1: c1, Slot: int(slot)}
		}
		buf, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatalf("canonical header rejected: %v (%+v)", err, h)
		}
		var got Header
		n, err := Decode(buf, &got)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d", n, len(buf))
		}
		if got != h {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
		}
	})
}

// referenceCaptureLine decodes one capture line with encoding/json:
// json.Unmarshal, then the bounded hex decode, then Decode, with none
// of CaptureReader's line parsing. CaptureReader must agree with it on
// every line.
func referenceCaptureLine(raw []byte, h *Header) (float64, ErrorKind, error) {
	var rec CaptureRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return 0, ErrKindFraming, err
	}
	if len(rec.Wire) > 2*MaxEncodedLen {
		return 0, ErrKindFraming, errors.New("frame longer than any header")
	}
	buf := make([]byte, MaxEncodedLen)
	n, err := hex.Decode(buf, []byte(rec.Wire))
	if err != nil {
		return 0, ErrKindFraming, err
	}
	used, err := Decode(buf[:n], h)
	if err != nil {
		return 0, KindOfError(err), err
	}
	if used != n {
		return 0, ErrKindFraming, errors.New("trailing bytes after header")
	}
	return rec.T, ErrKindNone, nil
}

// checkCaptureAgainstReference reads capture through a strict and a
// lenient CaptureReader and checks both line by line against
// bufio.Scanner's line split and referenceCaptureLine: the same times
// (bit for bit), headers, error presence, error kinds and line numbers.
func checkCaptureAgainstReference(t *testing.T, capture []byte) {
	t.Helper()
	strict := NewCaptureReader(bytes.NewReader(capture))
	lenient := NewCaptureReader(bytes.NewReader(capture))
	lenient.SkipMalformed(true)
	var wantKinds [NumErrorKinds]int64
	sc := bufio.NewScanner(bytes.NewReader(capture))
	sc.Buffer(nil, maxCaptureLine)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var want, got Header
		wantT, kind, wantErr := referenceCaptureLine(sc.Bytes(), &want)
		gotT, gotErr := strict.Next(&got)
		if (gotErr != nil) != (wantErr != nil) || gotErr == io.EOF {
			t.Fatalf("line %d %q: strict err = %v, reference err = %v", line, sc.Bytes(), gotErr, wantErr)
		}
		if strict.Line() != line {
			t.Fatalf("line %d %q: strict reader at line %d", line, sc.Bytes(), strict.Line())
		}
		if wantErr != nil {
			wantKinds[kind]++
			continue
		}
		if math.Float64bits(gotT) != math.Float64bits(wantT) || got != want {
			t.Fatalf("line %d %q: strict read t=%v %+v, reference t=%v %+v", line, sc.Bytes(), gotT, got, wantT, want)
		}
		gotT, gotErr = lenient.Next(&got)
		if gotErr != nil || math.Float64bits(gotT) != math.Float64bits(wantT) || got != want {
			t.Fatalf("line %d %q: lenient read t=%v %+v err=%v, reference t=%v %+v", line, sc.Bytes(), gotT, got, gotErr, wantT, want)
		}
		if lenient.MalformedByKind() != wantKinds {
			t.Fatalf("line %d: lenient malformed counts %v, reference %v", line, lenient.MalformedByKind(), wantKinds)
		}
	}
	if sc.Err() != nil {
		t.Skipf("line over the scanner cap: %v", sc.Err())
	}
	if _, err := strict.Next(new(Header)); err != io.EOF {
		t.Fatalf("strict reader after the last line: err = %v, want EOF", err)
	}
	if _, err := lenient.Next(new(Header)); err != io.EOF {
		t.Fatalf("lenient reader after the last line: err = %v, want EOF", err)
	}
	if lenient.MalformedByKind() != wantKinds {
		t.Fatalf("lenient malformed counts %v, reference %v", lenient.MalformedByKind(), wantKinds)
	}
	if strict.Line() != line || lenient.Line() != line {
		t.Fatalf("readers end at lines %d and %d, scanner at %d", strict.Line(), lenient.Line(), line)
	}
}

// FuzzCaptureLine feeds arbitrary capture bytes to CaptureReader and
// holds it to the encoding/json reference decoder, so the fixed-shape
// fast path can never accept, reject or classify a line differently.
func FuzzCaptureLine(f *testing.F) {
	h := sampleHeader()
	frame, err := MarshalAppend(nil, &h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"t":0.5,"wire":"` + hex.EncodeToString(frame) + `"}`))
	f.Add([]byte(`{"wire":"` + hex.EncodeToString(frame) + `","t":1e-7}` + "\n\n" + `{"t":1,"wire":"00"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCaptureAgainstReference(t, data)
	})
}

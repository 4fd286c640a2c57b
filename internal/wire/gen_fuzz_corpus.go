//go:build ignore

// gen_fuzz_corpus.go regenerates the checked-in fuzz seed corpora under
// testdata/fuzz/. Run from the repo root:
//
//	go run ./internal/wire/gen_fuzz_corpus.go
//
// The seeds put the fuzzers' first executions on the interesting
// boundaries instead of the all-zero input: a minimal valid header, a
// max-length AS path, a capability trailer, and one input per typed
// decode-error shape (ErrShort, ErrVersion, ErrFlags, ErrKind,
// ErrPathLen, ErrLength). FuzzControlFrameDecode gets the same
// treatment for control frames: minimal and maximal valid frames plus
// one seed per typed error (ErrHops, ErrCount, ErrTTL, ...).
// FuzzCaptureLine starts from one capture line per boundary of the
// fixed-shape fast path: the canonical line, shapes only encoding/json
// reads (reordered keys, an extra field, whitespace, a "T" key, CRLF,
// uppercase hex), and lines both must reject (bad numbers, an odd hex
// digit, garbage after the object, a frame one byte too long).
package main

import (
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/wire"
)

func marshal(h wire.Header) []byte {
	b, err := wire.MarshalAppend(nil, &h)
	if err != nil {
		log.Fatalf("marshal seed: %v", err)
	}
	return b
}

func writeSeed(dir, name, body string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	content := "go test fuzz v1\n" + body
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", filepath.Join(dir, name))
}

func bytesSeed(dir, name string, data []byte) {
	writeSeed(dir, name, "[]byte("+strconv.Quote(string(data))+")\n")
}

func main() {
	maxPath := wire.Header{
		Version: wire.Version1, Kind: netsim.KindData, Src: 0x0a000001,
		Dst: 0x0a000002, Length: 1500, PathLen: wire.MaxPathLen,
	}
	for i := 0; i < wire.MaxPathLen; i++ {
		maxPath.Path[i] = pathid.ASN(64 + i)
	}
	withCap := wire.Header{
		Version: wire.Version1, Flags: wire.FlagCapability | wire.FlagAttack,
		Kind: netsim.KindUDP, Src: 1, Dst: 2, Length: 0xffff, PathLen: 3,
		Cap: capability.Capability{C0: 0x1122334455667788, C1: 0x99aabbccddeeff00, Slot: 7},
	}
	withCap.Path[0], withCap.Path[1], withCap.Path[2] = 64, 7, 1

	valid := marshal(wire.Header{Version: wire.Version1, Kind: netsim.KindSYN, Length: 40})

	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}

	dir := filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireDecode")
	bytesSeed(dir, "valid-minimal", valid)
	bytesSeed(dir, "valid-max-path", marshal(maxPath))
	bytesSeed(dir, "valid-capability", marshal(withCap))
	bytesSeed(dir, "err-short-fixed", valid[:4])
	bytesSeed(dir, "err-short-trailer", marshal(withCap)[:20])
	bytesSeed(dir, "err-version", mutate(0, wire.Version1+1))
	bytesSeed(dir, "err-flags", mutate(1, 0x80))
	bytesSeed(dir, "err-kind", mutate(2, 0xff))
	bytesSeed(dir, "err-path-len", mutate(3, wire.MaxPathLen+1))
	bytesSeed(dir, "err-zero-length", func() []byte {
		b := append([]byte(nil), valid...)
		b[12], b[13] = 0, 0
		return b
	}())

	// FuzzWireRoundTrip takes decomposed canonical fields:
	// (flags, kind uint8, src, dst uint32, length uint16, pathLen uint8,
	//  c0, c1 uint64, slot uint8, pathSeed uint64).
	rt := func(flags, kind uint8, src, dst uint32, length uint16, pathLen uint8, c0, c1 uint64, slot uint8, seed uint64) string {
		return fmt.Sprintf(
			"uint8(%d)\nuint8(%d)\nuint32(%d)\nuint32(%d)\nuint16(%d)\nuint8(%d)\nuint64(%d)\nuint64(%d)\nuint8(%d)\nuint64(%d)\n",
			flags, kind, src, dst, length, pathLen, c0, c1, slot, seed)
	}
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzWireRoundTrip")
	writeSeed(dir, "minimal", rt(0, 0, 1, 2, 40, 0, 0, 0, 0, 0))
	writeSeed(dir, "max-path", rt(0, 1, 0xffffffff, 0, 0xffff, wire.MaxPathLen, 0, 0, 0, 0x0123456789abcdef))
	writeSeed(dir, "capability", rt(uint8(wire.FlagCapability), 4, 10, 20, 1500, 3, ^uint64(0), 1, 255, 42))
	writeSeed(dir, "all-flags", rt(0xff, 3, 1, 1, 1, 1, 1, 1, 1, 1))
	writeSeed(dir, "zero-length-clamped", rt(0, 2, 0, 0, 0, 2, 0, 0, 0, 7))

	marshalControl := func(f wire.ControlFrame) []byte {
		b, err := wire.MarshalControlAppend(nil, &f)
		if err != nil {
			log.Fatalf("marshal control seed: %v", err)
		}
		return b
	}
	minimal := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Origin: 1, Seq: 1, TTLMillis: 1000, NumRecords: 1,
	}
	minimal.Records[0] = wire.FeedbackRecord{PathLen: 1, LimitBits: 1_000_000}
	minimal.Records[0].Path[0] = 100
	maximal := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Hops: wire.MaxControlHops, Origin: 0xffffffff, Seq: ^uint64(0),
		TTLMillis: 0xffff, NumRecords: wire.MaxFeedbackRecords,
	}
	for i := 0; i < wire.MaxFeedbackRecords; i++ {
		maximal.Records[i].PathLen = wire.MaxPathLen
		for j := 0; j < wire.MaxPathLen; j++ {
			maximal.Records[i].Path[j] = pathid.ASN(i*wire.MaxPathLen + j)
		}
		maximal.Records[i].LimitBits = uint64(i) << 20
	}
	release := minimal
	release.Records[0].LimitBits = 0

	cv := marshalControl(minimal)
	cmutate := func(i int, v byte) []byte {
		b := append([]byte(nil), cv...)
		b[i] = v
		return b
	}
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzControlFrameDecode")
	bytesSeed(dir, "valid-minimal", cv)
	bytesSeed(dir, "valid-max", marshalControl(maximal))
	bytesSeed(dir, "valid-release", marshalControl(release))
	bytesSeed(dir, "err-short-fixed", cv[:6])
	bytesSeed(dir, "err-short-record", cv[:len(cv)-3])
	bytesSeed(dir, "err-version", cmutate(0, wire.Version1))
	bytesSeed(dir, "err-kind", cmutate(1, 0xee))
	bytesSeed(dir, "err-hops", cmutate(2, wire.MaxControlHops+1))
	bytesSeed(dir, "err-count-zero", cmutate(3, 0))
	bytesSeed(dir, "err-count-over", cmutate(3, wire.MaxFeedbackRecords+1))
	bytesSeed(dir, "err-ttl-zero", func() []byte {
		b := append([]byte(nil), cv...)
		b[16], b[17] = 0, 0
		return b
	}())
	bytesSeed(dir, "err-record-pathlen", cmutate(18, wire.MaxPathLen+1))

	frame := hex.EncodeToString(marshal(withCap))
	line := func(t, wire string) []byte { return []byte(`{"t":` + t + `,"wire":"` + wire + `"}`) }
	dir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzCaptureLine")
	bytesSeed(dir, "canonical", line("0.5", frame))
	bytesSeed(dir, "reordered-keys", []byte(`{"wire":"`+frame+`","t":0.5}`))
	bytesSeed(dir, "extra-field", []byte(`{"t":0.5,"wire":"`+frame+`","x":1}`))
	bytesSeed(dir, "whitespace", []byte(`{ "t": 0.5, "wire": "`+frame+`" }`))
	bytesSeed(dir, "odd-hex-digit", line("0.5", "0"))
	bytesSeed(dir, "upper-t-key", []byte(`{"T":0.5,"wire":"`+frame+`"}`))
	bytesSeed(dir, "range-1e400", line("1e400", frame))
	bytesSeed(dir, "negative-zero", line("-0", frame))
	bytesSeed(dir, "leading-zero", line("01", frame))
	bytesSeed(dir, "plus-sign", line("+1", frame))
	bytesSeed(dir, "bare-fraction", line(".5", frame))
	bytesSeed(dir, "garbage-after-object", append(line("0.5", frame), 'x'))
	bytesSeed(dir, "crlf", append(line("0.5", frame), '\r', '\n'))
	bytesSeed(dir, "frame-one-byte-too-long", line("0.5", strings.Repeat("00", wire.MaxEncodedLen+1)))
	bytesSeed(dir, "uppercase-hex", line("0.5", strings.ToUpper(frame)))
}

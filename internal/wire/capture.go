package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// CaptureRecord is one line of an NDJSON capture: the packet's arrival
// time in virtual seconds and its hex-encoded wire header. The text form
// keeps captures hermetic, diffable, and greppable — the properties CI
// replay needs — at the cost of 2x+epsilon over raw binary.
type CaptureRecord struct {
	T    float64 `json:"t"` //floc:unit seconds
	Wire string  `json:"wire"`
}

// The canonical capture line is captureLineHead, the time as
// encoding/json formats a float64, captureLineMid, the frame in
// lowercase hex, and captureLineTail: exactly json.Marshal of a
// CaptureRecord. CaptureWriter emits it and CaptureReader's fast path
// recognises it.
var (
	captureLineHead = []byte(`{"t":`)
	captureLineMid  = []byte(`,"wire":"`)
	captureLineTail = []byte(`"}`)
)

// maxCaptureLine bounds one capture line, newline included. A line is
// the header hex plus JSON framing; the slack is for hand-edited
// captures with extra fields.
const maxCaptureLine = 1 << 20

// CaptureWriter writes NDJSON capture records.
type CaptureWriter struct {
	w     *bufio.Writer
	buf   []byte  // the encoded frame
	line  []byte  // the line being written
	lastT float64 //floc:unit seconds
	n     int
}

// NewCaptureWriter returns a CaptureWriter on w. Call Flush when done.
func NewCaptureWriter(w io.Writer) *CaptureWriter {
	return &CaptureWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, MaxEncodedLen)}
}

// Write appends one record for h at time t. Records must be written in
// non-decreasing time order; Write rejects regressions so a capture is
// replayable as-is.
// floc:unit t seconds
func (cw *CaptureWriter) Write(t float64, h *Header) error {
	if cw.n > 0 && t < cw.lastT {
		return fmt.Errorf("wire: capture time %v before previous record %v", t, cw.lastT)
	}
	frame, err := MarshalAppend(cw.buf[:0], h)
	if err != nil {
		return err
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		// json.Marshal's error for the same record.
		return &json.UnsupportedValueError{Value: reflect.ValueOf(t), Str: strconv.FormatFloat(t, 'g', -1, 64)}
	}
	cw.line = appendCaptureLine(cw.line[:0], t, frame)
	if _, err := cw.w.Write(cw.line); err != nil {
		return err
	}
	cw.lastT = t
	cw.n++
	return nil
}

// appendCaptureLine appends the canonical line for frame at time t,
// newline included. t must be finite.
// floc:unit t seconds
func appendCaptureLine(dst []byte, t float64, frame []byte) []byte {
	dst = append(dst, captureLineHead...)
	// encoding/json's float64 form: like %g, but with ES6 exponent
	// cutoffs and no zero padding in the exponent.
	format := byte('f')
	if abs := math.Abs(t); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	num := len(dst)
	dst = strconv.AppendFloat(dst, t, format, -1, 64)
	if n := len(dst); format == 'e' && n-num >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 -> e-7
		dst = dst[:n-1]
	}
	dst = append(dst, captureLineMid...)
	dst = hex.AppendEncode(dst, frame)
	dst = append(dst, captureLineTail...)
	return append(dst, '\n')
}

// Flush flushes buffered output.
func (cw *CaptureWriter) Flush() error { return cw.w.Flush() }

// Records returns how many records were written.
func (cw *CaptureWriter) Records() int { return cw.n }

// CaptureReader streams records out of an NDJSON capture. By default a
// malformed line fails the read; SkipMalformed switches to lenient mode,
// where bad lines are counted by error kind and skipped instead — what a
// long replay wants when one hand-edited line should not void the run.
type CaptureReader struct {
	r         *bufio.Reader
	long      []byte // a line that overflowed r's buffer
	err       error  // io.EOF or the read error that ended the input
	line      int
	buf       []byte
	lenient   bool
	malformed [NumErrorKinds]int64
}

// NewCaptureReader returns a CaptureReader on r. It buffers r itself.
func NewCaptureReader(r io.Reader) *CaptureReader {
	return &CaptureReader{r: bufio.NewReader(r), buf: make([]byte, MaxEncodedLen)}
}

// SkipMalformed switches the reader between strict (default: any bad
// line fails the read) and lenient (bad lines are counted and skipped).
func (cr *CaptureReader) SkipMalformed(on bool) { cr.lenient = on }

// Malformed returns the number of lines skipped in lenient mode.
func (cr *CaptureReader) Malformed() int64 {
	var n int64
	for _, c := range cr.malformed {
		n += c
	}
	return n
}

// MalformedByKind returns the per-ErrorKind counts of lines skipped in
// lenient mode; framing breakage (bad JSON, bad hex, trailing bytes,
// overlong lines) counts under ErrKindFraming.
func (cr *CaptureReader) MalformedByKind() [NumErrorKinds]int64 { return cr.malformed }

// decodeFrameHex hex-decodes one capture frame into dst, bounding the
// declared frame by the destination before touching it. The hex text is
// attacker-controlled; the returned count is not: hex.Decode writes at
// most len(dst) bytes and rejects partial or invalid digits.
//
// floc:hotpath
// floc:untrusted s
// floc:sanitizes
func decodeFrameHex(dst, s []byte) (int, error) {
	if len(s) > 2*len(dst) {
		return 0, errFrameTooLong(len(s))
	}
	return hex.Decode(dst, s)
}

// errFrameTooLong reports hex text longer than any header.
//
// floc:coldpath error construction is off the capture fast path
func errFrameTooLong(n int) error {
	return fmt.Errorf("frame longer than any header (%d hex chars)", n)
}

// parseCanonicalLine decodes a line of exactly the shape CaptureWriter
// emits into h. Anything else — another shape, or a line of this shape
// that does not decode — reports ok=false and is left to decodeLine,
// which owns every error. A hex text that hex.Decode accepts holds no
// quote, backslash, control or non-ASCII byte, so the line is plain
// JSON and json.Unmarshal would read the same time and frame from it.
//
// floc:hotpath
// floc:untrusted raw
func (cr *CaptureReader) parseCanonicalLine(raw []byte, h *Header) (t float64, ok bool) {
	body, ok := bytes.CutPrefix(raw, captureLineHead)
	if !ok {
		return 0, false
	}
	if body, ok = bytes.CutSuffix(body, captureLineTail); !ok {
		return 0, false
	}
	n := jsonNumberLen(body)
	hexText, ok := bytes.CutPrefix(body[n:], captureLineMid)
	if n == 0 || !ok {
		return 0, false
	}
	t, err := strconv.ParseFloat(string(body[:n]), 64)
	if err != nil {
		return 0, false
	}
	fn, err := decodeFrameHex(cr.buf, hexText)
	if err != nil {
		return 0, false
	}
	if used, err := Decode(cr.buf[:fn], h); err != nil || used != fn {
		return 0, false
	}
	return t, true
}

// jsonNumberLen returns the length of the JSON number that b starts
// with, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, ended by a
// non-number byte; 0 when b does not start with one or ends inside it.
// The grammar is stricter than strconv.ParseFloat's, which also takes
// "+1", ".5", "01", "0x1p3", "Inf" and underscores.
//
// floc:hotpath
// floc:untrusted b
func jsonNumberLen(b []byte) int {
	const (
		numSign    = iota // optional minus
		numLead           // first integer digit
		numZero           // after a leading 0
		numInt            // more integer digits
		numFrac0          // first fraction digit
		numFrac           // more fraction digits
		numExpSign        // exponent sign or first digit
		numExp0           // first exponent digit after a sign
		numExp            // more exponent digits
	)
	state := numSign
	for i, c := range b {
		switch {
		case '0' <= c && c <= '9':
			switch state {
			case numSign, numLead:
				state = numInt
				if c == '0' {
					state = numZero
				}
			case numFrac0:
				state = numFrac
			case numExpSign, numExp0:
				state = numExp
			case numZero:
				return i // "01": the number is the 0
			}
		case c == '-' && state == numSign:
			state = numLead
		case c == '.' && (state == numZero || state == numInt):
			state = numFrac0
		case (c == 'e' || c == 'E') && (state == numZero || state == numInt || state == numFrac):
			state = numExpSign
		case (c == '+' || c == '-') && state == numExpSign:
			state = numExp0
		case state == numZero || state == numInt || state == numFrac || state == numExp:
			return i
		default:
			return 0
		}
	}
	return 0
}

// decodeLine parses one nonempty capture line into h through
// encoding/json, classifying any failure for the malformed counters.
// It is the reference decoder parseCanonicalLine must agree with.
//
// floc:untrusted raw
func (cr *CaptureReader) decodeLine(raw []byte, h *Header) (float64, ErrorKind, error) {
	var rec CaptureRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return 0, ErrKindFraming, fmt.Errorf("wire: capture line %d: %v", cr.line, err)
	}
	n, err := decodeFrameHex(cr.buf, []byte(rec.Wire))
	if err != nil {
		return 0, ErrKindFraming, fmt.Errorf("wire: capture line %d: %v", cr.line, err)
	}
	used, err := Decode(cr.buf[:n], h)
	if err != nil {
		return 0, KindOfError(err), fmt.Errorf("wire: capture line %d: %v", cr.line, err)
	}
	if used != n {
		return 0, ErrKindFraming, fmt.Errorf("wire: capture line %d: %d trailing bytes after header", cr.line, n-used)
	}
	return rec.T, ErrKindNone, nil
}

// readLine returns the next line without its "\n" or "\r\n", as
// bufio.ScanLines splits them: a last line with no newline still
// counts. A line longer than maxCaptureLine is consumed through its
// newline and reported overlong, so memory stays bounded by the cap.
// ok is false once the input is exhausted; cr.err then holds io.EOF or
// the read error.
func (cr *CaptureReader) readLine() (line []byte, overlong, ok bool) {
	if cr.err != nil {
		return nil, false, false
	}
	line, err := cr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		cr.long = append(cr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = cr.r.ReadSlice('\n')
			if overlong = overlong || len(cr.long)+len(line) > maxCaptureLine; !overlong {
				cr.long = append(cr.long, line...)
			}
		}
		line = cr.long
	}
	if err != nil {
		cr.err = err
		if len(line) == 0 {
			return nil, false, false
		}
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, overlong, true
}

// Next decodes the next record into h and returns its arrival time.
// io.EOF signals a clean end of capture; any other error names the
// offending line (in lenient mode the line is counted and skipped
// instead).
// floc:unit t seconds
func (cr *CaptureReader) Next(h *Header) (t float64, err error) {
	for {
		raw, overlong, ok := cr.readLine() //floc:untrusted
		if !ok {
			return 0, cr.err
		}
		cr.line++
		kind := ErrKindFraming
		switch {
		case overlong:
			err = fmt.Errorf("wire: capture line %d: longer than %d bytes", cr.line, maxCaptureLine)
		case len(raw) == 0:
			continue
		default:
			if t, ok := cr.parseCanonicalLine(raw, h); ok {
				return t, nil
			}
			if t, kind, err = cr.decodeLine(raw, h); err == nil {
				return t, nil
			}
		}
		if !cr.lenient {
			return 0, err
		}
		cr.malformed[kind]++
	}
}

// Line returns the number of the last consumed capture line.
func (cr *CaptureReader) Line() int { return cr.line }

package kdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file owns the record format — {"sql":…,"args":[{"k":…,"v":…}]} — and
// the messages built around it: the exec/query and batch exchanges of the
// kdb:// protocol and the replicate-record frame. The format is the one
// encoding/json derives from walEntry, wireRequest, wireResponse and
// replMsg; those structs remain its definition. What is here is a second,
// reflection-free way to say the same bytes on the statement path:
//
//   - append-style encoders that emit exactly what json.Marshal emits for
//     the structs (key order, omitempty, string escaping), and
//   - a strict scanner that accepts only what those encoders write, byte
//     for byte in shape, decoding straight into engine values.
//
// The decline rule: whatever the scanner does not recognise — a meta
// record, reordered or unknown keys, interior whitespace, an escape the
// encoder never emits, a cold verb, an error or heartbeat frame — it
// refuses without judging, and the caller hands the same bytes to
// encoding/json and the structs. So the accept set, every error message and
// mixed-version peers are exactly what they were; a declined message only
// costs what every message used to cost.

// maxScratch bounds the buffers kept between messages and between write
// steps: room for a unit of work — a 16-object save is one line of a hundred
// kilobytes, which every hop would otherwise allocate anew, several times
// over as it grows, thousands of times a campaign — but not for a snapshot:
// one multi-megabyte response must not pin its buffer for the life of the
// connection.
const maxScratch = 256 << 10

// keepScratch returns b for the next message to reuse, or nothing once it
// has grown past maxScratch.
func keepScratch(b []byte) []byte {
	if cap(b) > maxScratch {
		return nil
	}
	return b
}

// roomFor returns b with room for one more statement in the record's shape,
// growing it by doubling. A buffer that collects a whole unit of work must
// not be left to append's own growth: past a few kilobytes that is a quarter
// at a time, and every step copies all the statements already in it.
func roomFor(b []byte, sql string, args []any) []byte {
	need := len(sql) + 48*len(args) + 16
	for _, a := range args {
		if s, ok := a.(string); ok {
			need += len(s)
		}
	}
	return grow(b, need)
}

// grow returns b with room for need more bytes, growing it by doubling.
func grow(b []byte, need int) []byte {
	if cap(b)-len(b) >= need {
		return b
	}
	return append(make([]byte, 0, 2*cap(b)+need), b...)
}

const hexDigits = "0123456789abcdef"

// plainByte marks the bytes a JSON string carries as themselves in both
// directions: printable ASCII except the quote, the backslash and the three
// characters encoding/json escapes for HTML safety.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString appends s as the JSON string encoding/json writes for it.
func appendString(dst []byte, s string) []byte {
	mark := len(dst)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainByte[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '<', '>', '&':
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			default:
				// The remaining control bytes are spelled differently by
				// different Go releases (\b or \u0008); let the library this
				// binary links say it.
				q, _ := json.Marshal(s) // a string always marshals
				return append(dst[:mark], q...)
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendArg appends one typed value cell: {"k":kind} or {"k":kind,"v":text}.
func appendArg(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, `{"k":"n"}`...), nil
	case int64:
		return append(strconv.AppendInt(append(dst, `{"k":"i","v":"`...), x, 10), `"}`...), nil
	case float64:
		return append(strconv.AppendFloat(append(dst, `{"k":"r","v":"`...), x, 'g', -1, 64), `"}`...), nil
	case string:
		if x == "" {
			return append(dst, `{"k":"t"}`...), nil
		}
		return append(appendString(append(dst, `{"k":"t","v":`...), x), '}'), nil
	}
	n, err := normalizeArg(v) // a caller's int, bool, float32, …: one of the four above, or an error
	if err != nil {
		return dst, err
	}
	return appendArg(dst, n)
}

// appendArgs appends a JSON array of value cells. Inside the batch request
// being recorded (refs), the id of one of its earlier statements is the one
// cell that is not a value: {"k":"ref","v":"<statement index>"}, for the
// server to fill in. Everywhere else refs is nil and a Ref is the id it holds.
func appendArgs(dst []byte, args []any, refs *recording) ([]byte, error) {
	dst = append(dst, '[')
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		if refs != nil {
			if r, ok := a.(Ref); ok && r.rec == refs && refs.ids == nil {
				dst = append(strconv.AppendInt(append(dst, `{"k":"ref","v":"`...), int64(r.stmt), 10), `"}`...)
				continue
			}
		}
		var err error
		if dst, err = appendArg(dst, a); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendKey starts the next field of the object being written: key is the
// quoted name and its colon.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendRecord appends one mutation's log record, without a newline.
func appendRecord(dst []byte, sql string, args []any) ([]byte, error) {
	return appendStmt(dst, sql, args, nil)
}

// appendStmt appends one statement in the record's shape: a log record
// (refs nil), or a statement of the batch request refs is recording.
func appendStmt(dst []byte, sql string, args []any, refs *recording) ([]byte, error) {
	dst = append(dst, '{')
	if sql != "" {
		dst = appendString(appendKey(dst, `"sql":`), sql)
	}
	if len(args) > 0 {
		var err error
		if dst, err = appendArgs(appendKey(dst, `"args":`), args, refs); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// isStatement reports whether op is one of the two verbs of the statement
// path. Their requests, and their answers when they succeed, are the only
// messages the codec writes; every other goes through the structs.
func isStatement(op string) bool { return op == "exec" || op == "query" }

// appendRequest appends req's line. A statement's arguments are args, in
// place of req.Args.
func appendRequest(dst []byte, req *wireRequest, args []any) ([]byte, error) {
	if !isStatement(req.Op) {
		return appendJSONLine(dst, req)
	}
	dst = appendString(append(dst, `{"op":`...), req.Op)
	if req.SQL != "" {
		dst = appendString(appendKey(dst, `"sql":`), req.SQL)
	}
	if len(args) > 0 {
		var err error
		if dst, err = appendArgs(appendKey(dst, `"args":`), args, nil); err != nil {
			return dst, err
		}
	}
	if req.TraceID != "" {
		dst = appendString(appendKey(dst, `"trace_id":`), req.TraceID)
	}
	if req.SpanID != "" {
		dst = appendString(appendKey(dst, `"span_id":`), req.SpanID)
	}
	return append(dst, '}', '\n'), nil
}

// appendBatchHead starts a batch request's line: everything before its first
// statement. The recorder appends the statements (appendStmt, comma between)
// as they are made, then appendBatchTail. key is the placement key of a keyed
// batch.
func appendBatchHead(dst []byte, key *uint64) []byte {
	dst = append(dst, `{"op":"batch"`...)
	if key != nil {
		dst = strconv.AppendUint(append(dst, `,"key":`...), *key, 10)
	}
	return append(dst, `,"stmts":[`...)
}

// appendReadHead starts a read request's line: its statements follow as a
// batch's do (appendStmt, comma between), then appendBatchTail.
func appendReadHead(dst []byte) []byte { return append(dst, `{"op":"read","stmts":[`...) }

// appendBatchTail ends the line appendBatchHead or appendReadHead started;
// footprint, set only on a read, asks for the answers' footprints.
func appendBatchTail(dst []byte, traceID, spanID string, footprint bool) []byte {
	dst = append(dst, ']')
	if traceID != "" {
		dst = appendString(append(dst, `,"trace_id":`...), traceID)
	}
	if spanID != "" {
		dst = appendString(append(dst, `,"span_id":`...), spanID)
	}
	if footprint {
		dst = append(dst, `,"fp":true`...)
	}
	return append(dst, '}', '\n')
}

// appendResponse appends the line answering an exec, a query or a batch. A query's
// result is rows, in place of resp.Rows, and its footprint resp.fp, in place
// of resp.Footprint; a value the wire cannot carry turns the answer into
// that error.
func appendResponse(dst []byte, resp *wireResponse, rows [][]any) ([]byte, error) {
	if resp.Err != "" {
		return appendJSONLine(dst, resp)
	}
	mark := len(dst)
	dst = append(dst, '{')
	if resp.LastInsertID != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"last_id":`), resp.LastInsertID, 10)
	}
	if resp.RowsAffected != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"affected":`), int64(resp.RowsAffected), 10)
	}
	if len(resp.Columns) > 0 {
		dst = append(appendKey(dst, `"cols":`), '[')
		for i, c := range resp.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	if len(rows) > 0 {
		dst = append(appendKey(dst, `"rows":`), '[')
		for i, row := range rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendArgs(dst, row, nil); err != nil {
				return appendJSONLine(dst[:mark], &wireResponse{Err: err.Error()})
			}
		}
		dst = append(dst, ']')
	}
	if len(resp.IDs) > 0 {
		dst = append(appendKey(dst, `"ids":`), '[')
		for i, id := range resp.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	if resp.LSN != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"lsn":`), resp.LSN, 10)
	}
	if len(resp.fp) > 0 {
		var err error
		if dst, err = appendFootprint(appendKey(dst, `"fp":`), resp.fp); err != nil {
			return appendJSONLine(dst[:mark], &wireResponse{Err: err.Error()})
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendReplFrame appends the stream line carrying one committed record.
// encoding/json compacts and HTML-escapes a RawMessage on its way into the
// frame; a record the scanner accepts is already in that form, so its bytes
// go in verbatim, and any other is left to the library. A record known to be
// in the scanner's shape (scanned) is not looked at again.
func appendReplFrame(dst []byte, lsn int64, raw []byte, scanned bool, primaryLSN int64) ([]byte, error) {
	if !scanned {
		_, _, scanned = scanRecord(raw)
	}
	if !scanned || lsn == 0 {
		return appendJSONLine(dst, &replMsg{LSN: lsn, Entry: raw, PrimaryLSN: primaryLSN})
	}
	dst = strconv.AppendInt(append(dst, `{"lsn":`...), lsn, 10)
	dst = append(append(dst, `,"entry":`...), raw...)
	if primaryLSN != 0 {
		dst = strconv.AppendInt(append(dst, `,"primary_lsn":`...), primaryLSN, 10)
	}
	return append(dst, '}', '\n'), nil
}

// appendJSONLine appends v as encoding/json marshals it, plus the newline
// that ends a message: the encoder of everything off the statement path.
func appendJSONLine(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, data...), '\n'), nil
}

// The scanner. A cursor walks one message; a method that does not find what
// it expects sets failed, after which every method does nothing, so a caller
// asks once at the end whether the whole input was what it expected.
type cursor struct {
	b      []byte
	i      int
	failed bool
	// respelled is set once a string or a number was read that is not in the
	// encoder's spelling (an escape appendString does not write, "+7", "1.50"):
	// the bytes walked are then not what appendRecord writes for the values
	// they decode to. A text the intern table knows is not walked again, so
	// only a cursor that interns nothing can tell (scanBatchRequest's).
	respelled bool
	// refs admits the back-reference cell of a batch statement, decoded as a
	// refArg. A log record never holds one. refAt collects where each such
	// cell starts and ends in b, two offsets a cell.
	refs  bool
	refAt []int
	// texts and cells, when set, carry over from one record of a stream to
	// the next (decodeRecord). texts interns statement text: a statement's
	// raw quoted bytes, once str has accepted them, map to their decoded
	// text, so a log that repeats a handful of statements decodes each once.
	// cells is the unused rest of an array that argument lists are cut
	// from, in place of one allocation per record.
	texts map[string]string
	cells []any
}

const (
	// maxTexts bounds a cursor's intern table: a log's repeated statements
	// are a few dozen, and one that never repeats (values spelled into the
	// SQL) must not keep every statement it has read.
	maxTexts = 1024
	// cellsLen is the length of the arrays a cursor's cells are cut from:
	// the argument lists of a few hundred records.
	cellsLen = 4096
)

// newStreamCursor returns a cursor for the records of one stream — a log, a
// snapshot, a replication stream — that interns their statement text and
// cuts their argument lists from shared arrays.
func newStreamCursor() cursor {
	return cursor{texts: map[string]string{}, cells: make([]any, 0, cellsLen)}
}

// ok reports whether everything was recognised and nothing is left over.
func (c *cursor) ok() bool { return !c.failed && c.i == len(c.b) }

// reset points a stream's cursor at its next message.
func (c *cursor) reset(line []byte) { c.b, c.i, c.failed = line, 0, false }

func (c *cursor) fail() string {
	c.failed = true
	return ""
}

// has consumes the literal s if it comes next.
func (c *cursor) has(s string) bool {
	if c.failed || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// must consumes the literal s.
func (c *cursor) must(s string) {
	if !c.has(s) {
		c.failed = true
	}
}

// field consumes an object key if it comes next. key is written with the
// comma every key but an object's first needs.
func (c *cursor) field(key string) bool {
	if c.i > 0 && c.b[c.i-1] == '{' {
		key = key[1:]
	}
	return c.has(key)
}

// str consumes a JSON string in the encoder's spelling: plain bytes, valid
// UTF-8, and the escapes \" \\ \n \r \t \b \f \uXXXX (no surrogates). It
// declines the raw characters the encoder would have escaped, which also
// makes an accepted string a fixed point of encoding/json's compaction.
func (c *cursor) str() string {
	b, i := c.b, c.i
	if c.failed || i >= len(b) || b[i] != '"' {
		return c.fail()
	}
	i++
	start := i
	for i < len(b) && b[i] < utf8.RuneSelf && plainByte[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		c.i = i + 1
		return string(b[start:i])
	}
	end := closingQuote(b, i) // so the decoded text can be sized once
	if end >= len(b) {
		return c.fail()
	}
	var sb strings.Builder
	sb.Grow(end - start)
	sb.Write(b[start:i])
	for i < end {
		ch := b[i]
		switch {
		case ch >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:end])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				return c.fail()
			}
			sb.Write(b[i : i+size])
			i += size
			continue
		case plainByte[ch]:
		case ch != '\\':
			return c.fail()
		default:
			i++ // the escaped byte lies before end: the quote search stepped over it
			switch ch = b[i]; ch {
			case '"', '\\':
			case 'n':
				ch = '\n'
			case 'r':
				ch = '\r'
			case 't':
				ch = '\t'
			case 'b': // the encoder leaves \b and \f to the library, whose spelling varies by release
				ch, c.respelled = '\b', true
			case 'f':
				ch, c.respelled = '\f', true
			case 'u':
				if end-i < 5 {
					return c.fail()
				}
				hex := b[i+1 : i+5]
				r, err := strconv.ParseUint(string(hex), 16, 16)
				if err != nil || utf8.RuneLen(rune(r)) < 0 {
					return c.fail()
				}
				c.respelled = c.respelled || !encoderEscape(string(hex))
				sb.WriteRune(rune(r))
				i += 5
				continue
			default:
				return c.fail()
			}
		}
		sb.WriteByte(ch)
		i++
	}
	c.i = end + 1
	return sb.String()
}

// encoderEscape reports whether \u followed by hex is how appendString
// spells the character: the HTML-unsafe three and the two line separators.
// Every other character it escapes it leaves to the library, or writes in a
// short form (\n, \", …).
func encoderEscape(hex string) bool {
	switch hex {
	case "003c", "003e", "0026", "2028", "2029":
		return true
	}
	return false
}

// closingQuote returns the position of the first unescaped quote in b from
// i on, or len(b) if there is none; b[i-1] must not be a backslash. A quote
// is escaped when an odd run of backslashes ends just before it.
func closingQuote(b []byte, i int) int {
	for {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return len(b)
		}
		q += i
		run := q
		for run > i && b[run-1] == '\\' {
			run--
		}
		if (q-run)%2 == 0 {
			return q
		}
		i = q + 1
	}
}

// text consumes a record's statement string: str, through the intern table
// when the cursor has one. A hit is the very bytes str accepted before, so
// it is accepted again, and decodes to the same text.
func (c *cursor) text() string {
	if c.texts == nil || c.failed || c.i >= len(c.b) {
		return c.str()
	}
	at := c.i
	if end := closingQuote(c.b, at+1); end < len(c.b) {
		if s, ok := c.texts[string(c.b[at:end+1])]; ok {
			c.i = end + 1
			return s
		}
	}
	s := c.str()
	if !c.failed && len(c.texts) < maxTexts {
		c.texts[string(c.b[at:c.i])] = s
	}
	return s
}

// digits consumes the text of a JSON integer — a minus sign only where signed
// allows one, no leading zeros — short enough to fit 64 bits.
func (c *cursor) digits(signed bool) []byte {
	b, i := c.b, c.i
	if signed && i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if c.failed || i == first || (b[first] == '0' && i-first > 1) || i-c.i > 20 {
		c.failed = true
		return nil
	}
	text := b[c.i:i]
	c.i = i
	return text
}

// int consumes a JSON integer that fits int64.
func (c *cursor) int() int64 {
	v, err := strconv.ParseInt(string(c.digits(true)), 10, 64)
	c.failed = c.failed || err != nil
	return v
}

// uint consumes a JSON integer that fits uint64.
func (c *cursor) uint() uint64 {
	v, err := strconv.ParseUint(string(c.digits(false)), 10, 64)
	c.failed = c.failed || err != nil
	return v
}

// numberText consumes the rest of an integer or real cell — its text, free
// of escapes, and the closing quote and brace — and returns the text. A
// number's text is a few dozen bytes at most, so converting it to a string
// for strconv stays on the stack.
func (c *cursor) numberText() []byte {
	start := c.i
	for c.i < len(c.b) && c.b[c.i] < utf8.RuneSelf && plainByte[c.b[c.i]] && c.i-start <= 32 {
		c.i++
	}
	text := c.b[start:c.i]
	c.must(`"}`)
	return text
}

// args consumes a non-empty array of value cells. hint sizes the result.
func (c *cursor) args(hint int) (args []any) {
	c.must(`[`)
	if !c.failed {
		if c.cells == nil {
			args = make([]any, 0, hint)
		} else {
			if cap(c.cells) < 8*hint {
				c.cells = make([]any, 0, cellsLen)
			}
			args = c.cells
		}
	}
	for !c.failed {
		cell := c.i
		c.must(`{"k":"`)
		var kind byte // tried first, so that a cell costs one literal compare
		if c.i < len(c.b) {
			kind = c.b[c.i]
		}
		switch {
		case kind == 'n' && c.has(`n"}`):
			args = append(args, nil)
		case kind == 't' && c.has(`t"}`):
			args = append(args, "")
		case kind == 't' && c.has(`t","v":`):
			at := c.i
			s := c.str()
			if c.i-at <= 2 { // the encoder omits an empty text
				c.failed = true
			}
			c.must(`}`)
			args = append(args, s)
		case kind == 'i' && c.has(`i","v":"`):
			text := c.numberText()
			n, err := strconv.ParseInt(string(text), 10, 64)
			c.failed = c.failed || err != nil
			c.respelled = c.respelled || !canonInt(text)
			args = append(args, n)
		case kind == 'r' && c.has(`r","v":"`):
			text := c.numberText()
			f, ok := canonDecimal(text)
			if !ok {
				var err error
				f, err = strconv.ParseFloat(string(text), 64)
				c.failed = c.failed || err != nil
				c.respelled = true
			}
			args = append(args, f)
		case kind == 'r' && c.refs && c.has(`ref","v":"`):
			n, err := strconv.ParseInt(string(c.numberText()), 10, 64)
			c.failed = c.failed || err != nil
			args = append(args, refArg(n))
			c.refAt = append(c.refAt, cell, c.i)
		default:
			c.failed = true
		}
		if c.has(`]`) {
			if n := len(args); c.cells != nil && cap(args) == cap(c.cells) { // not outgrown
				c.cells = c.cells[n:n]
				return args[:n:n]
			}
			return args
		}
		c.must(`,`)
	}
	return nil
}

// canonInt reports whether text, which ParseInt accepts, is an integer as
// strconv.AppendInt writes it: no sign but a leading minus, no leading zero,
// no -0.
func canonInt(text []byte) bool {
	if len(text) > 1 && text[0] == '-' {
		if text = text[1:]; text[0] == '0' {
			return false
		}
	}
	return len(text) > 0 && '0' <= text[0] && text[0] <= '9' && (text[0] != '0' || len(text) == 1)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// canonDecimal reads a real cell's text without strconv when it is a plain
// decimal as AppendFloat(v, 'g', -1, 64) writes one: [-]int[.frac] with no
// redundant zero (a leading one, a trailing one after the point), at most 15
// significant digits, and a decimal exponent in [-4, 6) — at most six
// integer digits, or at most three zeros after "0.". Such a text is m/10^k
// for integers m < 2^53 and k ≤ 18, both exact in a float64, so one division
// gives the correctly rounded value ParseFloat would. And no other decimal of
// at most 15 significant digits rounds to that value (DBL_DIG), so the text
// is the value's shortest spelling, which is AppendFloat's. ok is false for
// anything else, which the caller leaves to ParseFloat.
func canonDecimal(text []byte) (v float64, ok bool) {
	i := 0
	neg := len(text) > 0 && text[0] == '-'
	if neg {
		i++
	}
	var m uint64
	start := i
	for i < len(text) && '0' <= text[i] && text[i] <= '9' {
		m = m*10 + uint64(text[i]-'0')
		i++
	}
	whole := i - start
	if whole == 0 || whole > 6 || (text[start] == '0' && whole > 1) {
		return 0, false
	}
	sig, k := whole, 0
	if m == 0 {
		sig = 0
	}
	if i < len(text) {
		if text[i] != '.' {
			return 0, false
		}
		i++
		frac := i
		for i < len(text) && '0' <= text[i] && text[i] <= '9' && i-frac < 19 {
			m = m*10 + uint64(text[i]-'0')
			i++
		}
		k = i - frac
		if k == 0 || i < len(text) || text[i-1] == '0' {
			return 0, false
		}
		if sig == 0 { // 0.000ddd: the zeros after the point are not significant
			z := 0
			for text[frac+z] == '0' {
				z++
			}
			if z > 3 {
				return 0, false
			}
			sig = k - z
		} else {
			sig += k
		}
	}
	if sig > 15 {
		return 0, false
	}
	v = float64(m) / pow10[k]
	if neg {
		v = -v
	}
	return v, true
}

// record consumes one mutation record: {"sql":…} or {"sql":…,"args":[…]}.
func (c *cursor) record() (sql string, args []any) {
	c.must(`{"sql":`)
	at := c.i
	sql = c.text()
	if c.i-at <= 2 { // the encoder omits an empty statement
		c.failed = true
	}
	if c.has(`,"args":`) {
		args = c.args(8)
	}
	c.must(`}`)
	return sql, args
}

// scanRecord decodes a log record in the shape appendRecord writes.
func scanRecord(line []byte) (sql string, args []any, ok bool) {
	c := cursor{b: line}
	sql, args = c.record()
	return sql, args, c.ok()
}

// scanStatementRequest decodes an exec or query request line in the shape
// appendRequest writes; args are the decoded cells, not req.Args.
func scanStatementRequest(line []byte) (req wireRequest, args []any, ok bool) {
	c := cursor{b: line}
	switch {
	case c.has(`{"op":"exec"`):
		req.Op = "exec"
	case c.has(`{"op":"query"`):
		req.Op = "query"
	default:
		return wireRequest{}, nil, false
	}
	if c.has(`,"sql":`) {
		req.SQL = c.str()
	}
	if c.has(`,"args":`) {
		args = c.args(8)
	}
	if c.has(`,"trace_id":`) {
		req.TraceID = c.str()
	}
	if c.has(`,"span_id":`) {
		req.SpanID = c.str()
	}
	c.must(`}`)
	if !c.ok() {
		return wireRequest{}, nil, false
	}
	return req, args, true
}

// scanBatchRequest decodes a batch request line in the shape the recorder
// writes (appendBatchHead, appendStmt, appendBatchTail). stmts are the decoded
// statements, not req.Stmts; their references are not yet checked. A
// statement whose bytes are exactly what appendRecord writes for its values
// — references aside — keeps them in rec, a slice of line, with refAt
// locating its reference cells in rec; the rest get rec nil.
func scanBatchRequest(line []byte) (req wireRequest, stmts []batchStmt, ok bool) {
	return scanStmtsRequest(line, "batch")
}

// scanStmtsRequest decodes a request line of op whose statements travel in
// the batch's shape: a "batch" (scanBatchRequest), or a "read", which has no
// placement key and whose statements carry no reference cells.
func scanStmtsRequest(line []byte, op string) (req wireRequest, stmts []batchStmt, ok bool) {
	c := cursor{b: line, refs: op == "batch"}
	if !c.has(`{"op":"`) || !c.has(op) || !c.has(`"`) {
		return wireRequest{}, nil, false
	}
	req.Op = op
	if c.refs && c.has(`,"key":`) {
		key := c.uint()
		req.Key = &key
	}
	c.must(`,"stmts":[`)
	for !c.failed {
		at, refs := c.i, len(c.refAt)
		c.respelled = false
		sql, args := c.record()
		st := batchStmt{sql: sql, args: args}
		if !c.respelled {
			st.rec = line[at:c.i]
			// Offsets into rec, cut from the one array the whole line's
			// references went into.
			st.refAt = c.refAt[refs:len(c.refAt):len(c.refAt)]
			for k := range st.refAt {
				st.refAt[k] -= at
			}
		}
		stmts = append(stmts, st)
		if c.has(`]`) {
			break
		}
		c.must(`,`)
	}
	if c.has(`,"trace_id":`) {
		req.TraceID = c.str()
	}
	if c.has(`,"span_id":`) {
		req.SpanID = c.str()
	}
	req.Footprint = c.has(`,"fp":true`)
	c.must(`}`)
	if !c.ok() {
		return wireRequest{}, nil, false
	}
	return req, stmts, true
}

// scanStatementResponse decodes a response line in the shape appendResponse
// writes for a statement or a batch; rows are the decoded cells, not
// resp.Rows.
func scanStatementResponse(line []byte) (resp wireResponse, rows [][]any, ok bool) {
	c := cursor{b: line}
	c.must(`{`)
	if c.field(`,"last_id":`) {
		resp.LastInsertID = c.int()
	}
	if c.field(`,"affected":`) {
		n := c.int()
		resp.RowsAffected = int(n)
		c.failed = c.failed || int64(resp.RowsAffected) != n
	}
	if c.field(`,"cols":[`) {
		for !c.failed {
			resp.Columns = append(resp.Columns, c.str())
			if c.has(`]`) {
				break
			}
			c.must(`,`)
		}
	}
	if c.field(`,"rows":[`) {
		for !c.failed {
			rows = append(rows, c.args(len(resp.Columns)))
			if c.has(`]`) {
				break
			}
			c.must(`,`)
		}
	}
	if c.field(`,"ids":[`) {
		for !c.failed {
			resp.IDs = append(resp.IDs, c.int())
			if c.has(`]`) {
				break
			}
			c.must(`,`)
		}
	}
	if c.field(`,"lsn":`) {
		resp.LSN = c.int()
	}
	if c.field(`,"fp":[`) {
		resp.Footprint = c.footprint()
	}
	c.must(`}`)
	if !c.ok() {
		return wireResponse{}, nil, false
	}
	return resp, rows, true
}

// scanReplFrame decodes a record frame in the shape appendReplFrame splices,
// and the record in it, with c — the stream's cursor, whose intern table and
// cell arrays carry over from frame to frame (decodeRecord). The event's
// Entry is a copy: line belongs to the reader.
func scanReplFrame(c *cursor, line []byte) (ReplEvent, bool) {
	c.reset(line)
	var ev ReplEvent
	c.must(`{"lsn":`)
	ev.LSN = c.int()
	c.must(`,"entry":`)
	at := c.i
	ev.sql, ev.args = c.record()
	entry := line[at:c.i]
	if c.has(`,"primary_lsn":`) {
		ev.PrimaryLSN = c.int()
	}
	c.must(`}`)
	if !c.ok() {
		return ReplEvent{}, false
	}
	ev.Entry = append([]byte(nil), entry...)
	return ev, true
}

// lineReader frames the protocol: one message per line, of any length; the
// last line before end of stream may lack its newline, and blank lines are
// not messages (a JSON stream decoder skipped the whitespace between values).
type lineReader struct {
	br *bufio.Reader
	// long holds a line that did not fit br's buffer, until the next call;
	// its array is kept for the next such line (keepScratch).
	long []byte
}

// next returns the next message without its newline. The slice is only
// valid until the following call.
func (r *lineReader) next() ([]byte, error) {
	for {
		r.long = keepScratch(r.long)
		line, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			r.long = append(r.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.br.ReadSlice('\n')
				if len(r.long)+len(line) > cap(r.long) {
					// Double, which append stops doing past small sizes: a
					// multi-megabyte line then leaves garbage of its own
					// size behind, not four times that.
					r.long = append(make([]byte, 0, 2*cap(r.long)+len(line)), r.long...)
				}
				r.long = append(r.long, line...)
			}
			line = r.long
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			return line, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

package kdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The oracle. Before codec.go every record, request, response and frame was
// encoding/json over walEntry, wireRequest, wireResponse and replMsg, with
// encodeArgs/decodeArgs between engine values and []walArg. The tests below
// hold the codec to that, byte for byte and value for value.

// encodeArgs boxes engine values as the tagged cells of the structs. No
// production encoder builds []walArg any more; this is the reference one.
func encodeArgs(args []any) ([]walArg, error) {
	out := make([]walArg, len(args))
	for i, a := range args {
		n, err := normalizeArg(a)
		if err != nil {
			return nil, err
		}
		switch x := n.(type) {
		case nil:
			out[i] = walArg{Kind: "n"}
		case int64:
			out[i] = walArg{Kind: "i", Value: strconv.FormatInt(x, 10)}
		case float64:
			out[i] = walArg{Kind: "r", Value: strconv.FormatFloat(x, 'g', -1, 64)}
		case string:
			out[i] = walArg{Kind: "t", Value: x}
		default:
			return nil, fmt.Errorf("kdb: cannot log argument of type %T", a)
		}
	}
	return out, nil
}

// encodeWalEntry renders one mutation as its newline-terminated log record,
// as a follower receives it; the engine itself stages records straight into
// its write step's buffer.
func encodeWalEntry(sql string, args []any) ([]byte, error) {
	rec, err := appendRecord(nil, sql, args)
	if err != nil {
		return nil, err
	}
	return append(rec, '\n'), nil
}

func mustEncodeArgs(t testing.TB, args []any) []walArg {
	t.Helper()
	wa, err := encodeArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(wa) == 0 {
		return nil
	}
	return wa
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameValues compares decoded cells; NaN equals NaN and -0 differs from 0,
// which reflect.DeepEqual gets the wrong way round for this purpose.
func sameValues(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		if aok || bok {
			if aok != bok || math.Float64bits(fa) != math.Float64bits(fb) {
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValues(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkRecordScan holds scanRecord to the oracle on arbitrary bytes: when it
// accepts, encoding/json accepts the same line as a mutation with the same
// values (so whenever encoding/json rejects, the scanner has declined), the
// validate-only mode agrees with the decoding one, and the line is a fixed
// point of the compaction a RawMessage undergoes — the licence for splicing
// it into a replication frame verbatim. It reports whether the scanner
// accepted.
func checkRecordScan(t testing.TB, line []byte) bool {
	t.Helper()
	sql, args, ok := scanRecord(line, true)
	if _, _, vok := scanRecord(line, false); vok != ok {
		t.Fatalf("scanRecord(%q): decode mode accepts=%v, validate mode accepts=%v", line, ok, vok)
	}
	if !ok {
		return false
	}
	var e walEntry
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", line, err)
	}
	if e.isMeta() {
		t.Fatalf("scanner accepted the meta record %q", line)
	}
	want, err := decodeArgs(e.Args)
	if err != nil {
		t.Fatalf("scanner accepted %q, decodeArgs rejects it: %v", line, err)
	}
	if sql != e.SQL || !sameValues(args, want) {
		t.Fatalf("scanRecord(%q) = %q %v, encoding/json says %q %v", line, sql, args, e.SQL, want)
	}
	if compact := mustMarshal(t, json.RawMessage(line)); !bytes.Equal(compact, line) {
		t.Fatalf("scanner accepted %q, which a RawMessage would rewrite to %q", line, compact)
	}
	return true
}

// checkWireScan does the same for the message scanners.
func checkWireScan(t testing.TB, line []byte) {
	t.Helper()
	checkBatchScan(t, line)
	if req, args, ok := scanStatementRequest(line); ok {
		var want wireRequest
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("request scanner accepted %q, encoding/json rejects it: %v", line, err)
		}
		wantArgs, err := decodeArgs(want.Args)
		if err != nil {
			t.Fatalf("request scanner accepted %q, decodeArgs rejects it: %v", line, err)
		}
		want.Args = nil
		if !reflect.DeepEqual(req, want) || !sameValues(args, wantArgs) {
			t.Fatalf("scanStatementRequest(%q) = %+v %v, encoding/json says %+v %v", line, req, args, want, wantArgs)
		}
	}
	if resp, rows, ok := scanStatementResponse(line); ok {
		var want wireResponse
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("response scanner accepted %q, encoding/json rejects it: %v", line, err)
		}
		var wantRows [][]any
		for _, wr := range want.Rows {
			row, err := decodeArgs(wr)
			if err != nil {
				t.Fatalf("response scanner accepted %q, decodeArgs rejects it: %v", line, err)
			}
			wantRows = append(wantRows, row)
		}
		want.Rows = nil
		if !reflect.DeepEqual(resp, want) || !sameRows(rows, wantRows) {
			t.Fatalf("scanStatementResponse(%q) = %+v %v, encoding/json says %+v %v", line, resp, rows, want, wantRows)
		}
	}
	if ev, ok := scanReplFrame(line); ok {
		var m replMsg
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("frame scanner accepted %q, encoding/json rejects it: %v", line, err)
		}
		want := ReplEvent{LSN: m.LSN, Entry: m.Entry, PrimaryLSN: m.PrimaryLSN, Heartbeat: m.Heartbeat, SnapshotRequired: m.SnapshotRequired}
		if m.Err != "" || !reflect.DeepEqual(ev, want) {
			t.Fatalf("scanReplFrame(%q) = %+v, encoding/json says %+v (err %q)", line, ev, want, m.Err)
		}
	}
}

// checkStatement encodes one statement as a record, an exec request, a
// query response row, a replication frame and (three times over, with a
// reference where an argument allows one) a batch request, demands the
// oracle's bytes from each encoder and acceptance of each by its scanner, and
// returns the lines for the caller to mutate.
func checkStatement(t testing.TB, sql string, args []any) [][]byte {
	t.Helper()
	wa := mustEncodeArgs(t, args)

	rec, err := appendRecord(nil, sql, args)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, walEntry{SQL: sql, Args: wa}); !bytes.Equal(rec, want) {
		t.Fatalf("record\n got %s\nwant %s", rec, want)
	}
	if canonical := sql != ""; checkRecordScan(t, rec) != canonical {
		t.Fatalf("scanner acceptance of its own encoder's record %s = %v", rec, !canonical)
	}

	req := wireRequest{Op: "exec", SQL: sql, TraceID: "cafe<cafe>", SpanID: "beef"}
	if len(args)%2 == 1 {
		req = wireRequest{Op: "query", SQL: sql}
	}
	reqLine, err := appendRequest(nil, &req, args)
	if err != nil {
		t.Fatal(err)
	}
	req.Args = wa
	if want := append(mustMarshal(t, req), '\n'); !bytes.Equal(reqLine, want) {
		t.Fatalf("request\n got %s\nwant %s", reqLine, want)
	}
	reqLine = reqLine[:len(reqLine)-1]
	if _, _, ok := scanStatementRequest(reqLine); !ok {
		t.Fatalf("request scanner declines its own encoder's %s", reqLine)
	}

	resp := wireResponse{LastInsertID: int64(len(sql)), RowsAffected: len(args), LSN: math.MaxInt64 - int64(len(args))}
	if len(args)%3 == 2 { // a batch's answer
		resp = wireResponse{IDs: []int64{int64(len(sql)), 0, math.MinInt64, math.MaxInt64}[:len(args)%5], LSN: resp.LSN}
	}
	rows := [][]any{args, args}
	wrows := [][]walArg{wa, wa}
	if len(args) == 0 {
		rows, wrows = nil, nil
	} else {
		resp.Columns = []string{sql, "plain", "<&>"}
	}
	respLine, err := appendResponse(nil, &resp, rows)
	if err != nil {
		t.Fatal(err)
	}
	resp.Rows = wrows
	if want := append(mustMarshal(t, resp), '\n'); !bytes.Equal(respLine, want) {
		t.Fatalf("response\n got %s\nwant %s", respLine, want)
	}
	respLine = respLine[:len(respLine)-1]
	if _, _, ok := scanStatementResponse(respLine); !ok {
		t.Fatalf("response scanner declines its own encoder's %s", respLine)
	}

	frame, err := appendReplFrame(nil, 7, rec, int64(len(args)))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(mustMarshal(t, replMsg{LSN: 7, Entry: rec, PrimaryLSN: int64(len(args))}), '\n'); !bytes.Equal(frame, want) {
		t.Fatalf("frame\n got %s\nwant %s", frame, want)
	}
	frame = frame[:len(frame)-1]
	if _, ok := scanReplFrame(frame); !ok && sql != "" {
		t.Fatalf("frame scanner declines its own encoder's %s", frame)
	}

	var key *uint64
	if len(args)%2 == 1 {
		key = new(uint64)
		*key = math.MaxUint64 - uint64(len(sql))
	}
	stmt := batchStmt{sql, args}
	batchLine := checkBatchRequest(t, key, req.TraceID, req.SpanID, []batchStmt{stmt, {"INSERT INTO t VALUES (?)", []any{int64(0)}}, stmt})

	for _, line := range [][]byte{reqLine, respLine, frame, batchLine} {
		checkWireScan(t, line)
	}
	return [][]byte{rec, reqLine, respLine, frame, batchLine}
}

// hostileStrings are the texts an escaping bug would show on.
func hostileStrings() []string {
	all := make([]byte, 256)
	out := []string{
		"", " ", `"`, `\`, `\\`, `\"`, `"\<>&`, "<script>alert('x') && y</script>",
		"\u2028", "\u2029", "a\u2028b\u2029c", "\ufffd", "\u00e9\u4e16\U0001F600",
		"\xed\xa0\x80", "\xed\xb0\x80", "\xed\xa0\x80\xed\xb0\x80", // surrogates spelled as UTF-8
		"\xff", "\xc0\xaf", "\xe2\x80", "ok\xe2\x80", "\xe2\x80\xa8\xe2\x80", "\xf4\x90\x80\x80",
		`\u0041`, `\ud83d\ude00`, `\n`, "line one\nline two\r\n\ttabbed", "\b\f\v\x00\x7f",
		`{"sql":"x"}`, `","v":"`, strings.Repeat("long <text> ", 700),
	}
	for c := 0; c < 256; c++ {
		all[c] = byte(c)
		out = append(out, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	return append(out, string(all))
}

func hostileValues() []any {
	vals := []any{
		nil, int64(0), int64(-1), int64(255), int64(256), int64(math.MinInt64), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), 1.5, -0.25, 1e-300, 1e21, 1e20, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		int(7), int32(-7), uint(8), uint64(9), float32(0.5), true, false,
	}
	for _, s := range hostileStrings() {
		vals = append(vals, s)
	}
	return vals
}

// mutate applies one small edit to line: the ways a message stops being
// canonical (or stops being JSON) one byte at a time.
func mutate(rng *rand.Rand, line []byte) []byte {
	const alphabet = "\"\\ ,:{}[]0-9aeu<&\x00\x7f\x80\xe2\n\t"
	out := append([]byte(nil), line...)
	if len(out) == 0 {
		return out
	}
	p := rng.Intn(len(out))
	switch rng.Intn(5) {
	case 0: // delete
		out = append(out[:p], out[p+1:]...)
	case 1: // duplicate
		out = append(out[:p+1], out[p:]...)
	case 2: // replace
		out[p] = alphabet[rng.Intn(len(alphabet))]
	case 3: // insert
		out = append(out[:p+1], out[p:]...)
		out[p] = alphabet[rng.Intn(len(alphabet))]
	default: // truncate
		out = out[:p]
	}
	return out
}

// TestCodecMatchesEncodingJSON is the differential property: on the
// generator TestWALRoundTripProperty uses plus every hostile value, each
// encoder's output equals json.Marshal of the old structs; each scanner
// accepts its own encoder's output; and on those lines and thousands of
// one-byte mutations of them, whatever a scanner accepts decodes to what
// json.Unmarshal and decodeArgs make of it.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type stmt struct {
		sql  string
		args []any
	}
	var stmts []stmt
	for _, op := range randomOps(rng, 300) {
		stmts = append(stmts, stmt{op.sql, op.args})
	}
	vals := hostileValues()
	for _, v := range vals {
		stmts = append(stmts, stmt{"INSERT INTO t (v) VALUES (?)", []any{v}})
		if s, ok := v.(string); ok {
			stmts = append(stmts, stmt{s, nil}, stmt{"SELECT '" + s + "'", []any{s, nil, s}})
		}
	}
	for i := 0; i < 200; i++ { // random mixes of hostile cells
		args := make([]any, 1+rng.Intn(9))
		for j := range args {
			args[j] = vals[rng.Intn(len(vals))]
		}
		stmts = append(stmts, stmt{"INSERT INTO t VALUES (?, ?, ?)", args})
	}
	accepted, mutations := 0, 0
	for _, st := range stmts {
		for _, line := range checkStatement(t, st.sql, st.args) {
			if len(line) > 2048 {
				continue // mutating the 8 KiB texts buys nothing and costs seconds
			}
			for k := 0; k < 12; k++ {
				m := mutate(rng, line)
				mutations++
				if checkRecordScan(t, m) {
					accepted++
				}
				checkWireScan(t, m)
			}
		}
	}
	t.Logf("%d statements, %d mutations (%d still canonical records)", len(stmts), mutations, accepted)
}

// TestScannerDeclines lists the shapes the decline rule names. Each is
// something encoding/json reads (or rejects with its own message) and the
// scanner must leave to it.
func TestScannerDeclines(t *testing.T) {
	records := []string{
		`{"meta":true}`, `{"auto_ids":{"kv":5},"base_lsn":7}`, `{"sql":"x","meta":true}`,
		`{}`, `{"sql":""}`, `{"sql":"x","args":[]}`, `{"args":[{"k":"n"}]}`,
		`{"args":[{"k":"n"}],"sql":"x"}`, `{"sql":"x","zzz":1}`, `{"sql":"x","sql":"y"}`,
		`{"sql": "x"}`, `{ "sql":"x"}`, `{"sql":"x"} `, ` {"sql":"x"}`, "{\"sql\":\"x\"}\r",
		`{"sql":"x","args":[{"k":"n"}, {"k":"n"}]}`,
		`{"sql":"\ud83d\ude00"}`, `{"sql":"\ud800"}`, `{"sql":"\/"}`, `{"sql":"\u00zz"}`, `{"sql":"\u12"}`,
		`{"sql":"a<b"}`, `{"sql":"a>b"}`, `{"sql":"a&b"}`, "{\"sql\":\"a\u2028b\"}", "{\"sql\":\"a\xffb\"}", "{\"sql\":\"a\nb\"}",
		`{"sql":"x","args":[{"k":"t","v":""}]}`, `{"sql":"x","args":[{"k":"n","v":"x"}]}`,
		`{"sql":"x","args":[{"v":"1","k":"i"}]}`, `{"sql":"x","args":[{"k":"i"}]}`,
		`{"sql":"x","args":[{"k":"i","v":"1.5"}]}`, `{"sql":"x","args":[{"k":"i","v":"9223372036854775808"}]}`,
		`{"sql":"x","args":[{"k":"i","v":"\u0031"}]}`, `{"sql":"x","args":[{"k":"r","v":"one"}]}`,
		`{"sql":"x","args":[{"k":"x","v":"1"}]}`, `{"sql":"x","args":[{"k":"ii","v":"1"}]}`,
		`{"sql":"x"`, `{"sql":"x`, `{"sql":"x\`, `{"sql":"x\"`, `{"sql":"x"}}`, `{"sql":"x"}{"sql":"y"}`, `null`, `[]`, ``,
	}
	for _, r := range records {
		if checkRecordScan(t, []byte(r)) {
			t.Errorf("scanRecord accepted %q", r)
		}
	}
	// Non-canonical but harmless spellings the scanner may read itself, as
	// long as it reads them as encoding/json does: checkRecordScan decides.
	for _, r := range []string{
		`{"sql":"\u003c\u003C\b\f\u0000"}`, `{"sql":"x","args":[{"k":"i","v":"007"},{"k":"i","v":"+7"},{"k":"i","v":"-0"}]}`,
		`{"sql":"x","args":[{"k":"r","v":"0x1p-2"},{"k":"r","v":"infinity"},{"k":"r","v":"1_0"},{"k":"r","v":" 1"}]}`,
	} {
		checkRecordScan(t, []byte(r))
	}
	messages := []string{
		// cold verbs, reordered and unknown keys, whitespace
		`{"op":"status"}`, `{"op":"tables"}`, `{"op":"snapshot"}`, `{"op":"delta","have":["ab"]}`, `{"op":"shardmap"}`,
		`{"op":"replicate","after_lsn":3}`, `{"op":"exec","sql":"x","after_lsn":3}`, `{"op":"exec","sql":"x","have":["a"]}`,
		`{"sql":"x","op":"exec"}`, `{"op":"exec","args":[{"k":"n"}],"sql":"x"}`, `{"op":"exec","span_id":"b","trace_id":"a"}`,
		`{"op":"exec","sql":"x","future":true}`, `{"op": "exec","sql":"x"}`, `{"op":"exec", "sql":"x"}`, `{"op":"exec","sql":"x"} `,
		`{"op":"execute","sql":"x"}`, `{"op":"exec","sql":"x"`, `{"op":"exec""sql":"x"}`, `{"op":"exec","sql":"x",}`,
		// batches: no statements, misplaced or misspelt keys, references outside a batch
		`{"op":"batch"}`, `{"op":"batch","stmts":[]}`, `{"op":"batch","stmts":[{}]}`, `{"op":"batch","stmts":[{"sql":"x"},]}`,
		`{"op":"batch","stmts":[{"sql":"x"}],"key":1}`, `{"op":"batch","key":-1,"stmts":[{"sql":"x"}]}`, `{"op":"batch","key":01,"stmts":[{"sql":"x"}]}`,
		`{"op":"batch","key":18446744073709551616,"stmts":[{"sql":"x"}]}`, `{"op":"batch","key":1.0,"stmts":[{"sql":"x"}]}`,
		`{"op":"batch","sql":"x","stmts":[{"sql":"x"}]}`, `{"op":"batch","stmts":[{"sql":"x","args":[{"k":"ref"}]}]}`,
		`{"op":"batch","stmts":[{"sql":"x","args":[{"k":"ref","v":"1.5"}]}]}`, `{"op":"batch","stmts":[{"sql":"x","args":[{"k":"ref","v":1}]}]}`,
		`{"op":"exec","sql":"x","args":[{"k":"ref","v":"0"}]}`, `{"op":"query","sql":"x","args":[{"k":"ref","v":"0"}]}`,
		// responses: errors, cold answers, number spellings
		`{"err":"boom"}`, `{"err":"boom","lsn":3}`, `{"tables":["a"]}`, `{"lsn":3,"role":"primary"}`, `{"snapshot":"e30K","lsn":1}`,
		`{"lsn":3,"last_id":1}`, `{"last_id":1"affected":1}`, `{"last_id":01}`, `{"last_id":1.0}`, `{"last_id":1e2}`, `{"last_id":-}`,
		`{"last_id":92233720368547758070}`, `{"affected":9223372036854775808}`, `{"last_id": 1}`, `{"cols":[]}`, `{"rows":[]}`, `{"rows":[[]]}`,
		`{"cols":["a"],"rows":[[{"k":"n"}],]}`, `{"cols":["a",]}`, `{"cols":["a"]"rows":[[{"k":"n"}]]}`, `{,"lsn":1}`, `{"lsn":1,}`,
		`{"ids":[]}`, `{"ids":[1,]}`, `{"ids":[1.0]}`, `{"ids":["1"]}`, `{"lsn":3,"ids":[1]}`, `{"ids":[1],"rows":[[{"k":"n"}]]}`, `{"ids":[01]}`,
		// frames: heartbeats, snapshot-required, errors, bad entries
		`{"primary_lsn":5,"hb":true}`, `{"snap":true}`, `{"err":"gone"}`, `{"lsn":1,"primary_lsn":2}`,
		`{"lsn":1,"entry":{"meta":true},"primary_lsn":2}`, `{"lsn":1,"entry":{"sql":"x"},"primary_lsn":2,"hb":true}`,
		`{"lsn":1,"entry":{"sql":"x"}}}`, `{"lsn":1,"entry":{"sql":"x"},"primary_lsn":2} `, `{"lsn":1,"entry": {"sql":"x"}}`,
		`{"entry":{"sql":"x"},"lsn":1}`, `{"lsn":1,"entry":{"x":{"sql":"a"},"primary_lsn":5}`,
	}
	for _, m := range messages {
		line := []byte(m)
		checkWireScan(t, line)
		_, _, reqOK := scanStatementRequest(line)
		_, _, batchOK := scanBatchRequest(line)
		_, _, respOK := scanStatementResponse(line)
		_, frameOK := scanReplFrame(line)
		if reqOK || batchOK || respOK || frameOK {
			t.Errorf("a scanner accepted %q (request %v, batch %v, response %v, frame %v)", m, reqOK, batchOK, respOK, frameOK)
		}
	}
	// A record never holds a reference, whatever a batch statement may.
	if _, _, ok := scanRecord([]byte(`{"sql":"x","args":[{"k":"ref","v":"0"}]}`), true); ok {
		t.Error("scanRecord accepted a reference cell")
	}
	if _, _, ok := scanBatchRequest([]byte(`{"op":"batch","key":7,"stmts":[{"sql":"x"},{"sql":"y","args":[{"k":"ref","v":"0"}]}]}`)); !ok {
		t.Error("canonical batch request declined")
	}
	if _, _, ok := scanStatementResponse([]byte(`{"ids":[1,0],"lsn":3}`)); !ok {
		t.Error("canonical batch response declined")
	}
	// The minimal canonical messages, so the list above is known to fail for
	// its stated reason and not for a typo.
	if _, _, ok := scanStatementRequest([]byte(`{"op":"exec","sql":"x"}`)); !ok {
		t.Error("canonical request declined")
	}
	if _, _, ok := scanStatementResponse([]byte(`{"last_id":1,"affected":1,"lsn":3}`)); !ok {
		t.Error("canonical exec response declined")
	}
	if _, _, ok := scanStatementResponse([]byte(`{}`)); !ok {
		t.Error("empty response declined")
	}
	if _, ok := scanReplFrame([]byte(`{"lsn":1,"entry":{"sql":"x"},"primary_lsn":2}`)); !ok {
		t.Error("canonical frame declined")
	}
}

// TestReplFrameOfUncanonicalRecord: a record a log holds in some other
// spelling (hand-edited, padded) is not spliced; the frame is what
// encoding/json always made of it.
func TestReplFrameOfUncanonicalRecord(t *testing.T) {
	for _, raw := range []string{`{"sql": "a < b"}`, `{"sql":"a<b"}`, `{"args":[{"k":"n"}],"sql":"x"}`, "{\"sql\":\"a\u2028\"}"} {
		got, err := appendReplFrame(nil, 3, []byte(raw), 4)
		if err != nil {
			t.Fatal(err)
		}
		want := append(mustMarshal(t, replMsg{LSN: 3, Entry: json.RawMessage(raw), PrimaryLSN: 4}), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("frame of %q\n got %s\nwant %s", raw, got, want)
		}
	}
	if _, err := appendReplFrame(nil, 3, []byte(`{"sql":`), 4); err == nil {
		t.Error("a record that is not JSON must fail to frame, as it failed to marshal")
	}
}

// FuzzRecordCodec drives both directions of the record codec from fuzzed
// input: the bytes as a log line against the oracle, and the strings and
// numbers as a statement through encoder, oracle bytes and scanner.
func FuzzRecordCodec(f *testing.F) {
	f.Add([]byte(`{"sql":"INSERT INTO t VALUES (?, ?)","args":[{"k":"i","v":"1"},{"k":"t","v":"a\nb"}]}`), "INSERT", "text", int64(1), 1.5)
	f.Add([]byte(`{"sql":"x","args":[{"k":"n"},{"k":"t"},{"k":"r","v":"NaN"}]}`), "a<b>&c", "\u2028\xff\x00\b", int64(math.MinInt64), math.Inf(-1))
	f.Add([]byte(`{"meta":true}`), "", "", int64(0), 0.0)
	f.Add([]byte(`{"sql":"\ud83d\ude00\u003c"}`), `\u0041"\`, "\xed\xa0\x80", int64(-1), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, line []byte, sql, text string, n int64, r float64) {
		checkRecordScan(t, line)
		checkStatement(t, sql, []any{text, n, r, nil})
		checkStatement(t, text, nil)
	})
}

// FuzzWireScan holds the request, response and frame scanners to the oracle
// on fuzzed lines.
func FuzzWireScan(f *testing.F) {
	for _, seed := range []string{
		`{"op":"exec","sql":"INSERT INTO t VALUES (?)","args":[{"k":"i","v":"1"}],"trace_id":"cafe","span_id":"beef"}`,
		`{"op":"query","sql":"SELECT 1"}`,
		`{"last_id":1,"affected":1,"lsn":3}`,
		`{"cols":["a","b"],"rows":[[{"k":"i","v":"1"},{"k":"n"}],[{"k":"r","v":"1.5"},{"k":"t","v":"x\ny"}]]}`,
		`{"lsn":9,"entry":{"sql":"DELETE FROM t WHERE n = ?","args":[{"k":"i","v":"3"}]},"primary_lsn":12}`,
		`{"primary_lsn":5,"hb":true}`, `{"err":"boom"}`, `{"op":"status"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkWireScan(t, line)
	})
}

// goldenScript is a fixed history covering every record shape the log
// holds: DDL, a multi-row insert, typed arguments of every kind, update,
// delete, and text the encoder must escape.
var goldenScript = []struct {
	sql  string
	args []any
}{
	{"CREATE TABLE g (id INTEGER PRIMARY KEY, n INTEGER, r REAL, s TEXT)", nil},
	{"CREATE INDEX ix_g_n ON g (n)", nil},
	{"INSERT INTO g (n, r, s) VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, NULL)", nil},
	{"INSERT INTO g (n, r, s) VALUES (?, ?, ?)", []any{int64(math.MinInt64), 1e-300, "line one\nline two\ttabbed\r\n"}},
	{"INSERT INTO g (n, r, s) VALUES (?, ?, ?)", []any{int64(math.MaxInt64), -0.25, `<script>alert("x & y")</script> \ back`}},
	{"INSERT INTO g (n, r, s) VALUES (?, ?, ?)", []any{nil, nil, ""}},
	{"INSERT INTO g (n, r, s) VALUES (?, ?, ?)", []any{7, float32(0.5), "caf\u00e9 \u2028 sep \u2029 \x00\x01\x1f\x7f \xff\xfe bad utf8 \U0001F600"}},
	{"INSERT INTO g (n, r, s) VALUES (?, ?, ?)", []any{true, 1e21, "\v vertical"}},
	{"UPDATE g SET s = ? WHERE n = ?", []any{"updated <&>", int64(2)}},
	{"DELETE FROM g WHERE n = ?", []any{int64(3)}},
	{"CREATE TABLE h (id INTEGER PRIMARY KEY, v TEXT)", nil},
	{"INSERT INTO h (v) VALUES ('multi\nline literal')", nil},
	{"DROP INDEX ix_g_n", nil},
}

// TestGoldenLogBytes pins the bytes on disk across commits. The two
// constants were computed by running this very script at the commit before
// codec.go existed (encoding/json over walEntry); any encoder that writes a
// different log or a different snapshot for it fails here.
func TestGoldenLogBytes(t *testing.T) {
	const (
		wantLog  = "6fdb58a9575dbabac3c0633fd3f56af329f6e1110cf8e40690e3faa9e0e919c3" // 1297 bytes
		wantSnap = "12cbc36605a4399b9adad93b5bb2a7bbd485d23552aefab55cc04825df85d1de" // 1398 bytes
	)
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	path := filepath.Join(t.TempDir(), "golden.kdb")
	db := openFile(t, path)
	for _, st := range goldenScript {
		if _, err := db.Exec(st.sql, st.args...); err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(log); got != wantLog {
		t.Errorf("log sha256 = %s (%d bytes), want %s\n%s", got, len(log), wantLog, log)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, db)
	if got := sum(snap); got != wantSnap {
		t.Errorf("snapshot sha256 = %s (%d bytes), want %s\n%s", got, len(snap), wantSnap, snap)
	}
}

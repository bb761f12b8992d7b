package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"nostop/internal/listener"
	"nostop/internal/rng"
)

// consumers are consumer IDs covering the escapes encoding/json applies
// inside a string: HTML characters, quotes, control characters, the line
// separators U+2028/9, non-ASCII and invalid UTF-8.
var consumers = []string{
	"", "engine-0", "engine-12", "a<b>&c", `q"b\s`, "tab\tnl\n\x00\x1f",
	"sep\u2028\u2029", "caf\u00e9 \u6f22", "bad\xff\xfe",
}

var wireInts = []int64{0, 1, -1, 5000, 1 << 20, math.MaxInt64, math.MinInt64}

// TestWireMatchesEncodingJSON compares every appendJSON with json.Marshal,
// and writeReply with the json.Encoder reply writer, on a table and on
// random values, and reads each encoding back through its decoder.
func TestWireMatchesEncodingJSON(t *testing.T) {
	var msgs []any
	for i, c := range consumers {
		n := wireInts[i%len(wireInts)]
		msgs = append(msgs, fetchRequest{Consumer: c, Committed: n, Max: -n})
	}
	for _, n := range wireInts {
		msgs = append(msgs,
			fetchResponse{From: n, Count: -n, Head: n / 3, Committed: n / 7, Epoch: int(n % 1000)},
			commitRequest{Committed: n},
		)
	}
	r := rng.New(3).Split("service/wire").Rand()
	i64 := func() int64 { return r.Int63() - r.Int63() }
	for i := 0; i < 500; i++ {
		msgs = append(msgs,
			fetchRequest{Consumer: consumers[r.Intn(len(consumers))], Committed: i64(), Max: i64()},
			fetchResponse{From: i64(), Count: i64(), Head: i64(), Committed: i64(), Epoch: int(i64())},
			commitRequest{Committed: i64()},
		)
	}
	for _, m := range msgs {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var back wireValue
		switch m := m.(type) {
		case fetchRequest:
			got, back = m.appendJSON([]byte("x")), new(fetchRequest)
		case fetchResponse:
			got, back = m.appendJSON([]byte("x")), new(fetchResponse)
		case commitRequest:
			got, back = m.appendJSON([]byte("x")), new(commitRequest)
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("%T %+v:\n got %s\nwant x%s", m, m, got, want)
		}

		replyGot, replyWant := httptest.NewRecorder(), httptest.NewRecorder()
		writeReply(replyGot, got[1:])
		writeJSON(replyWant, m)
		if replyGot.Body.String() != replyWant.Body.String() ||
			!reflect.DeepEqual(replyGot.Header(), replyWant.Header()) {
			t.Fatalf("%T reply %v %q, want %v %q", m, replyGot.Header(), replyGot.Body,
				replyWant.Header(), replyWant.Body)
		}

		plain := true
		if fr, ok := m.(fetchRequest); ok {
			plain = fr.Consumer == "" || strings.HasPrefix(fr.Consumer, "engine-")
		}
		if !back.decodeWire(got[1:]) {
			if plain {
				t.Fatalf("%T decoder refused its own encoding %s", m, got[1:])
			}
			continue
		}
		if v := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(v, m) {
			t.Fatalf("%T decoded %s as %+v", m, got[1:], v)
		}
	}
}

// checkDecoders runs every wire decoder on data and compares its value and
// error text with the encoding/json call it replaces: json.Unmarshal for
// replies, json.Decoder for handler bodies. Each decoder starts from a
// non-zero value, so a member the input lacks must stay as it was.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	same := func(what string, got, want any, gerr, werr error) {
		t.Helper()
		if errText(gerr) != errText(werr) {
			t.Fatalf("%s(%q): error %v, encoding/json %v", what, data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%q) = %+v, encoding/json %+v", what, data, got, want)
		}
	}
	decoder := func(v any) error { return json.NewDecoder(bytes.NewReader(data)).Decode(v) }

	st, stRef := listener.Status{Executors: 3}, listener.Status{Executors: 3}
	err := listener.DecodeStatus(data, &st)
	same("DecodeStatus", st, stRef, err, json.Unmarshal(data, &stRef))

	prefix := []listener.BatchReport{{BatchID: 7}}
	rs, _, _, err := listener.DecodeReports(data, nil, prefix[:1:1])
	var rsRef []listener.BatchReport
	refErr := json.Unmarshal(data, &rsRef)
	if refErr == nil {
		same("DecodeReports", rs, append(prefix[:1:1], rsRef...), err, refErr)
	} else {
		same("DecodeReports", rs, prefix, err, refErr)
	}

	fr, frRef := fetchResponse{Epoch: 2}, fetchResponse{Epoch: 2}
	err = unmarshal(data, &fr)
	same("unmarshal fetchResponse", fr, frRef, err, json.Unmarshal(data, &frRef))

	fq, fqRef := fetchRequest{Max: 9}, fetchRequest{Max: 9}
	err = decodeBody(bytes.NewReader(data), &fq, new([]byte))
	same("decodeBody fetchRequest", fq, fqRef, err, decoder(&fqRef))
	// The broker's known consumer changes no decoded value.
	fk := fetchRequest{Max: 9, known: "engine-0"}
	kerr := decodeBody(bytes.NewReader(data), &fk, new([]byte))
	fk.known = ""
	same("decodeBody fetchRequest with a known consumer", fk, fqRef, kerr, err)

	cq, cqRef := commitRequest{Committed: 4}, commitRequest{Committed: 4}
	err = decodeBody(bytes.NewReader(data), &cq, new([]byte))
	same("decodeBody commitRequest", cq, cqRef, err, decoder(&cqRef))
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestDecodeBodyStreams: on bodies that stream on past their value, end in
// a read error or outgrow the read-ahead, decodeBody gives the value and
// error of json.NewDecoder(body).Decode, and reads no more than
// maxFastBody bytes once its value is complete. The cases share one
// scratch buffer, as a broker's handlers do, and its read-ahead gives the
// bytes and error of io.ReadAll(io.LimitReader(body, maxFastBody)).
func TestDecodeBodyStreams(t *testing.T) {
	reset := errors.New("connection reset")
	long := fetchRequest{Consumer: strings.Repeat("c", 2*maxFastBody), Committed: 3, Max: 5}.appendJSON(nil)
	var scratch []byte
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"canonical then endless spaces", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"consumer":"e","committed":1,"max":2}`), endless(' '))
		}},
		{"canonical then endless garbage", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"consumer":"e","committed":1,"max":2}`), endless('x'))
		}},
		{"case-folded then endless garbage", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"CONSUMER":"e","max":2}`), endless('x'))
		}},
		{"canonical then read error", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"consumer":"e","committed":1,"max":2}`), iotest.ErrReader(reset))
		}},
		{"case-folded then read error", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"Max":2}`), iotest.ErrReader(reset))
		}},
		{"cut by read error", func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"consumer":"e","comm`), iotest.ErrReader(reset))
		}},
		{"one byte per read", func() io.Reader {
			return iotest.OneByteReader(strings.NewReader(`{"consumer":"e","committed":1,"max":2} `))
		}},
		{"longer than the read-ahead", func() io.Reader { return bytes.NewReader(long) }},
	} {
		body := &countingReader{r: tc.body()}
		got, want := fetchRequest{Max: 9}, fetchRequest{Max: 9}
		err := decodeBody(body, &got, &scratch)
		werr := json.NewDecoder(tc.body()).Decode(&want)
		if errText(err) != errText(werr) || got != want {
			t.Errorf("%s: decodeBody = %+.40v, %v; json.Decoder %+.40v, %v", tc.name, got, err, want, werr)
		}
		if body.n > maxFastBody && body.n > len(long) {
			t.Errorf("%s: read %d bytes past a complete value", tc.name, body.n)
		}
		ahead, aerr := readAhead(scratch[:0], tc.body())
		all, werr := io.ReadAll(io.LimitReader(tc.body(), maxFastBody))
		if !bytes.Equal(ahead, all) || errText(aerr) != errText(werr) {
			t.Errorf("%s: readAhead = %.40q, %v; io.ReadAll %.40q, %v", tc.name, ahead, aerr, all, werr)
		}
	}
}

// endless reads as the byte b repeated forever.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// delivery is what the controller makes of a /batches reply, given the
// report it delivered last (BatchID -1 for none): the reports it delivers,
// or, when the reply does not start with that report, an engine restart.
type delivery struct {
	reports []listener.BatchReport
	restart bool
	err     string
}

// delivered mirrors ControllerService.onBatches on decoded reports: a reply
// whose overlap was skipped by its bytes is not compared with last.
func delivered(rs []listener.BatchReport, skipped bool, err error, last listener.BatchReport) delivery {
	if err != nil {
		return delivery{err: err.Error()}
	}
	if last.BatchID >= 0 && !skipped {
		if len(rs) == 0 || rs[0] != last {
			return delivery{restart: true}
		}
		rs = rs[1:]
	}
	if len(rs) == 0 {
		return delivery{}
	}
	return delivery{reports: rs}
}

// checkOverlap runs a controller that read prev before data both ways: it
// remembers the element of the last report prev delivered, as
// ControllerService does, and skips data's first element when it has
// exactly those bytes; or it decodes data whole and compares its first
// report with the last one delivered. Both must deliver the same reports,
// or both see a restart, or both fail with the same error. The element the
// skipping decode reports last must decode to the last report delivered.
func checkOverlap(t *testing.T, data, prev []byte) {
	t.Helper()
	last := listener.BatchReport{BatchID: -1}
	prevRs, _, known, err := listener.DecodeReports(prev, nil, nil)
	if err == nil && len(prevRs) > 0 {
		last = prevRs[len(prevRs)-1]
	}
	full, _, _, ferr := listener.DecodeReports(data, nil, nil)
	want := delivered(full, false, ferr, last)
	rs, skipped, lastElem, err := listener.DecodeReports(data, known, nil)
	got := delivered(rs, skipped, err, last)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after %q, reply %q: skipping by %q delivers %+v, skipped %v; full decode %+v",
			prev, data, known, got, skipped, want)
	}
	if skipped && len(known) == 0 {
		t.Fatalf("reply %q: skipped an overlap with no bytes remembered", data)
	}
	if n := len(got.reports); n > 0 && lastElem != nil {
		var back []listener.BatchReport
		elem := append(append([]byte("["), lastElem...), ']')
		if err := json.Unmarshal(elem, &back); err != nil || len(back) != 1 || back[0] != got.reports[n-1] {
			t.Fatalf("reply %q: last element %q decodes to %+v, %v; want %+v", data, lastElem, back, err,
				got.reports[n-1])
		}
	}
}

// indented renders v as the engine's listener serves it.
func indented(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzWireDecoders: on any input, each fast decoder gives the value and
// the error text of the encoding/json call it replaces, and a /batches
// reply read after another (prev) delivers the same reports whether its
// overlap is skipped by its bytes or decoded and compared. The seeds, which
// plain go test runs too, are canonical encodings of every polled message
// and inputs each decoder must hand to encoding/json: case-folded and
// unknown keys, escapes, wrong types, out-of-range numbers, nesting,
// trailing data; then polls that follow a reply with their overlap intact,
// changed in a field or in layout, or from a restarted engine.
func FuzzWireDecoders(f *testing.F) {
	status, _ := listener.AppendStatus(nil, listener.Status{
		Batches: 12, BatchIntervalMs: 4200, Executors: 8, QueueLength: 1, LagRecords: 5321,
		RateMean: 48213.377, RateStd: 1e-7, MeanProcMs: 3911.25, MeanE2EMs: -0.5, P95E2EMs: 1e21,
	})
	history := []listener.BatchReport{
		{BatchID: 0, NumRecords: 201234, BatchIntervalMs: 4200, Executors: 12, SubmissionTimeSec: 4.2,
			ProcessingDelayMs: 3900, TotalDelayMs: 3912, EndToEndDelayMs: 6011, FirstAfterChange: true},
		{BatchID: 1, SubmissionTimeSec: 8.4, FaultActive: true, QueueLength: 2},
		{BatchID: 2, NumRecords: 7, SubmissionTimeSec: 12.6, EndToEndDelayMs: 5},
	}
	reports := indented(history[:2])
	empty := indented([]listener.BatchReport{})
	none := indented([]listener.BatchReport(nil))
	for _, seed := range [][]byte{
		status, reports, empty, none,
		fetchRequest{Consumer: "engine-0", Committed: 123, Max: 5000}.appendJSON(nil),
		fetchResponse{From: 100, Count: 50, Head: 400, Committed: 90, Epoch: 1}.appendJSON(nil),
		commitRequest{Committed: 77}.appendJSON(nil),
		[]byte(`{"consumer":"a<b","committed":1e3,"max":-0}`),
		[]byte(`{"Committed":5} trailing`),
		[]byte(`{"batches":2,"extra":[1,{}]}`),
		[]byte(`{"batches":1.5,"numExecutors":"2","queueLength":null}`),
		[]byte(`{"inputRateMean":1e400,"batches":9223372036854775807}`),
		[]byte(`{"inputRateMean":"NaN"}`),
		[]byte(`{"epoch":2147483648,"from":-9223372036854775808}`),
		[]byte(`[{"batchId":1,"BATCHID":2}]`),
		[]byte(`[{"batchId":3},null]`), []byte(`[{"batchId":3.0}]`), []byte(`[{"faultActive":1}]`),
		[]byte(`[{"batchId":9223372036854775808}]`), []byte(`[{"batchId":3}] x`),
		[]byte("{\"consumer\":\"\\u0041\"}"),
		// Keys are read raw; each of these must fall back.
		[]byte(`{"batch\u0065s":1}`), []byte(`{"a\"b":1}`), []byte(`[{"batchId\"":1}]`),
		[]byte(`{"cons\u0075mer":"e","max":3}`), []byte(`[{"batchId":1,"num\u0052ecords":2}]`),
		[]byte("{\"b\xc3\xa4tches\":1}"), []byte("{\"batches\x01\":1}"), []byte("[{\"batch\x1fId\":1}]"),
		[]byte(`{"BATCHES":3,"Committed":4,"FROM":5}`), []byte(`[{"BatchId":8}]`),
		[]byte(`null`), []byte(`[]`), []byte(`{}`), []byte(``), []byte(`{}{}`), []byte(`not json`),
	} {
		f.Add(seed, reports)
	}
	changed := history[1]
	changed.QueueLength = 3
	for _, seed := range [][2][]byte{
		{indented(history[1:]), reports},  // the overlap and one new report
		{indented(history[1:2]), reports}, // the overlap alone
		{indented(history), reports},      // more than the overlap
		{indented(history[2:]), reports},  // a gap: the overlap is missing
		{indented([]listener.BatchReport{changed, history[2]}), reports},
		{bytes.ReplaceAll(indented(history[1:]), []byte("\n"), nil), reports},
		{indented(history[:1]), reports}, // a restarted engine's first report
		{none, reports},                  // a restarted engine with no report yet
		{indented(history[1:]), bytes.ReplaceAll(reports, []byte("\n"), nil)},
		{[]byte(`[{"batchId":1},{"batchId":2}]`), []byte(`[{"batchId":0},{"batchId":1}]`)},
		{[]byte(`[{"batchId":1}  ,{"batchId":2}] x`), []byte(`[{"batchId":1}]`)},
		{[]byte(`[{"batchId":1},{"batchId":2,"x":1}]`), []byte(`[{"batchId":1}]`)},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, data, prev []byte) {
		checkDecoders(t, data)
		checkOverlap(t, data, prev)
	})
}

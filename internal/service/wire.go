package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"nostop/internal/jsonwire"
)

// Wire codecs for the RPCs every simulated second crosses: the engine's
// fetch and commit to the broker. Each appendJSON writes what json.Marshal
// writes, so request bodies keep their bytes, and writeReply adds the
// newline json.Encoder.Encode ended replies with. Each decodeWire reads
// that canonical form back; unmarshal and decodeBody hand any other input
// to the encoding/json call they replace, so values and error texts match
// it by construction. /reconfigure, applied at most once per SPSA
// measurement window, the once-per-connection /config handshake and the
// unpolled /healthz, /invariants and /controller replies stay on
// encoding/json and writeJSON.

// wireValue is a message with a decoder for its canonical form.
type wireValue interface {
	// decodeWire fills the message from its canonical encoding as
	// json.Unmarshal would, and reports false, leaving the message as it
	// was, for any other input.
	decodeWire(data []byte) bool
}

// unmarshal decodes a reply body as json.Unmarshal(data, v) does.
func unmarshal(data []byte, v wireValue) error {
	if v.decodeWire(data) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// maxFastBody bounds what decodeBody reads ahead for the canonical form;
// the polled request bodies are well under 200 bytes.
const maxFastBody = 4096

// decodeBody decodes a request body as json.NewDecoder(body).Decode(v)
// does: one value, with anything after it ignored. It reads at most
// maxFastBody bytes ahead into *scratch, which it grows and keeps for the
// next call, so a body that streams on past its value holds the handler
// no longer than that. The fallback decoder reads those bytes and then the
// rest of the body, or the read error that cut them short, so it sees the
// stream the body gave.
func decodeBody(body io.Reader, v wireValue, scratch *[]byte) error {
	data, err := readAhead((*scratch)[:0], body)
	*scratch = data
	if v.decodeWire(data) {
		// The value ended before any read error, as the decoder would
		// have found it.
		return nil
	}
	rest := body
	if err != nil {
		rest = failedReader{err}
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader(data), rest)).Decode(v)
}

// readAhead appends to buf what io.ReadAll(io.LimitReader(body,
// maxFastBody)) returns, bytes and error, reading as io.ReadAll does but
// into buf's spare capacity first.
func readAhead(buf []byte, body io.Reader) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 512) // io.ReadAll's first buffer
	}
	lr := io.LimitedReader{R: body, N: maxFastBody}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// failedReader replays the read error that cut decodeBody's read-ahead.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// jsonContentType is the Content-Type value of writeReply's replies. It is
// assigned into the header map instead of allocating a slice per reply;
// nothing mutates it (http.Error and Header.Set replace the slice).
var jsonContentType = []string{"application/json"}

// writeReply writes an appendJSON encoding as writeJSON's json.Encoder
// wrote it: JSON content type, trailing newline.
func writeReply(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(append(body, '\n')); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// compact returns what w wrote; the wire messages hold no floats, so
// encoding cannot fail.
func compact(w *jsonwire.Writer) []byte {
	b, _ := w.Bytes()
	return b
}

func (r fetchRequest) appendJSON(buf []byte) []byte {
	w := jsonwire.NewWriter(buf, jsonwire.Compact)
	w.BeginObject()
	w.String("consumer", r.Consumer)
	w.Int("committed", r.Committed)
	w.Int("max", r.Max)
	w.EndObject()
	return compact(&w)
}

func (r *fetchRequest) decodeWire(data []byte) bool {
	v := *r
	s := jsonwire.NewScanner(data)
	s.BeginObject()
	for s.NextKey() {
		switch string(s.Key()) {
		case "consumer":
			v.Consumer = s.StringOr(r.known)
		case "committed":
			v.Committed = s.Int64()
		case "max":
			v.Max = s.Int64()
		default:
			s.Fail()
		}
	}
	if !s.Done() {
		return false
	}
	*r = v
	return true
}

func (r fetchResponse) appendJSON(buf []byte) []byte {
	w := jsonwire.NewWriter(buf, jsonwire.Compact)
	w.BeginObject()
	w.Int("from", r.From)
	w.Int("count", r.Count)
	w.Int("head", r.Head)
	w.Int("committed", r.Committed)
	w.Int("epoch", int64(r.Epoch))
	w.EndObject()
	return compact(&w)
}

func (r *fetchResponse) decodeWire(data []byte) bool {
	v := *r
	s := jsonwire.NewScanner(data)
	s.BeginObject()
	for s.NextKey() {
		switch string(s.Key()) {
		case "from":
			v.From = s.Int64()
		case "count":
			v.Count = s.Int64()
		case "head":
			v.Head = s.Int64()
		case "committed":
			v.Committed = s.Int64()
		case "epoch":
			v.Epoch = s.Int()
		default:
			s.Fail()
		}
	}
	if !s.Done() {
		return false
	}
	*r = v
	return true
}

func (r commitRequest) appendJSON(buf []byte) []byte {
	w := jsonwire.NewWriter(buf, jsonwire.Compact)
	w.BeginObject()
	w.Int("committed", r.Committed)
	w.EndObject()
	return compact(&w)
}

func (r *commitRequest) decodeWire(data []byte) bool {
	v := *r
	s := jsonwire.NewScanner(data)
	s.BeginObject()
	for s.NextKey() {
		switch string(s.Key()) {
		case "committed":
			v.Committed = s.Int64()
		default:
			s.Fail()
		}
	}
	if !s.Done() {
		return false
	}
	*r = v
	return true
}

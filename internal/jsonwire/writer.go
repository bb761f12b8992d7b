package jsonwire

// Layout selects which of encoding/json's two renderings a Writer produces.
type Layout int

const (
	// Compact is json.Marshal's layout: no whitespace at all.
	Compact Layout = iota
	// Indented is a json.Encoder's after SetIndent("", "  "): each member
	// and element on its own line, two spaces per level, ": " after keys,
	// and [] or {} for an empty container.
	Indented
)

// Writer appends one JSON value to a byte slice: an object whose members
// are scalars, or an array of such objects left open, whose bytes are then
// encoding/json's up to the closing bracket (a caller that stores elements
// apart closes the array itself). Keyed methods write an object member;
// BeginObject starts the top-level value or an array element. The writer
// trusts its caller to nest properly. An unsupported float is kept as the
// error, and Bytes then hands back nothing, as json.Marshal does.
//
// Keys are constants: a struct field's JSON name, which encoding/json
// writes unescaped. A key must be printable ASCII other than '"', '\\',
// '<', '>' and '&'; the writer copies it between quotes as it is.
type Writer struct {
	buf    []byte
	start  int
	layout Layout
	depth  int
	empty  bool // the innermost open container has no member yet
	err    error
}

// NewWriter returns a writer appending to buf in the given layout.
func NewWriter(buf []byte, layout Layout) Writer {
	return Writer{buf: buf, start: len(buf), layout: layout}
}

// Bytes returns buf with the value appended, as json.Marshal renders it;
// on error, buf as it was.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return w.buf[:w.start], w.err
	}
	return w.buf, nil
}

// Line is Bytes followed by the newline json.Encoder.Encode ends every
// value with.
func (w *Writer) Line() ([]byte, error) {
	b, err := w.Bytes()
	if err != nil {
		return b, err
	}
	return append(b, '\n'), nil
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.open('[') }

// Int writes the member key: v.
func (w *Writer) Int(key string, v int64) {
	w.key(key)
	w.buf = AppendInt(w.buf, v)
}

// Float writes the member key: f, recording the error for NaN or ±Inf.
func (w *Writer) Float(key string, f float64) {
	w.key(key)
	var err error
	w.buf, err = AppendFloat(w.buf, f)
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Bool writes the member key: v.
func (w *Writer) Bool(key string, v bool) {
	w.key(key)
	if v {
		w.buf = append(w.buf, "true"...)
	} else {
		w.buf = append(w.buf, "false"...)
	}
}

// String writes the member key: s.
func (w *Writer) String(key, s string) {
	w.key(key)
	w.buf = AppendString(w.buf, s)
}

// next separates a new member or element from the one before it: a comma
// after the first, then, indented, a line break at the current depth.
func (w *Writer) next() {
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *Writer) newline() {
	if w.layout != Indented {
		return
	}
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// key writes a member's key, which the Writer contract makes a constant
// that needs no escaping.
func (w *Writer) key(k string) {
	w.next()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	if w.layout == Indented {
		w.buf = append(w.buf, '"', ':', ' ')
	} else {
		w.buf = append(w.buf, '"', ':')
	}
}

func (w *Writer) open(c byte) {
	w.next()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost container; a non-empty one ends on its own line.
// The parent is non-empty afterwards: the closed container is its member.
func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

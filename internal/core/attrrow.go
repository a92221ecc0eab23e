package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Attribute-bag wire encoding, shared by the in-memory Dataset arena,
// the MIDX dataset files, the MXSNAP attrs section and MXWAL records:
//
//	attrs: uint16 nFields | nFields × field
//	field: uint16 keyLen, key bytes | kind(1) | payload
//	  kind 1 (int):    int64 (little endian)
//	  kind 2 (float):  float64 bits
//	  kind 3 (string): uint16 len, raw bytes
//	  kind 4 (tags):   uint16 count, count × (uint16 len, raw bytes)
//
// EncodeAttrs writes fields in strictly ascending (byte-wise) key
// order, so one bag has exactly one encoding: the canonical form. The
// Dataset keeps every bag in it and evaluates predicates on the bytes
// in place (AttrRow), and the persistence formats write those bytes as
// they are.

// maxAttrLen is the largest count or length a uint16 field can carry.
const maxAttrLen = math.MaxUint16

// ErrAttrsTooLarge reports a bag the wire encoding cannot represent: a
// field count, key length, string length, tag count or tag length over
// 65535. Dataset.SetAttrs rejects such a bag before storing it, so it
// can never be acknowledged, journaled, and then fail to replay.
var ErrAttrsTooLarge = errors.New("core: attribute bag exceeds the uint16 limits of its encoding")

// EncodeAttrs appends the canonical encoding of a to dst and returns
// the extended slice. A nil or empty bag encodes as a zero field count.
// On error the returned slice is dst unchanged.
func EncodeAttrs(dst []byte, a Attrs) ([]byte, error) {
	if len(a) > maxAttrLen {
		return dst, fmt.Errorf("%w: %d fields (limit %d)", ErrAttrsTooLarge, len(a), maxAttrLen)
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
	for _, k := range keys {
		v := a[k]
		if err := checkAttrLen(k, "key", len(k)); err != nil {
			return dst, err
		}
		out = appendAttrString(out, k)
		out = append(out, byte(v.kind))
		switch v.kind {
		case AttrInt:
			out = binary.LittleEndian.AppendUint64(out, uint64(v.i))
		case AttrFloat:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.f))
		case AttrString:
			if err := checkAttrLen(k, "string", len(v.s)); err != nil {
				return dst, err
			}
			out = appendAttrString(out, v.s)
		case AttrTags:
			if err := checkAttrLen(k, "tag count", len(v.tags)); err != nil {
				return dst, err
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(len(v.tags)))
			for _, t := range v.tags {
				if err := checkAttrLen(k, "tag", len(t)); err != nil {
					return dst, err
				}
				out = appendAttrString(out, t)
			}
		default:
			return dst, fmt.Errorf("core: attr %q has invalid kind %d", k, v.kind)
		}
	}
	return out, nil
}

func checkAttrLen(key, what string, n int) error {
	if n > maxAttrLen {
		return fmt.Errorf("%w: attr %q: %s of %d (limit %d)", ErrAttrsTooLarge, key, what, n, maxAttrLen)
	}
	return nil
}

func appendAttrString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AttrRow is a read-only view of one attribute bag in its canonical
// encoding. The bag is the encoding at the front of the view; a view
// may run on past it (Dataset.AttrRow returns the arena from the bag's
// offset on, so a lookup costs no length scan), and every method reads
// only the bag. The zero value is the empty bag. Methods never panic,
// whatever the bytes: a malformed field ends the bag.
type AttrRow []byte

// ParseAttrRow reads one bag from the front of buf and returns it as a
// row, with the number of bytes it took. A bag already in canonical
// form is returned as a view of buf, trimmed to the bag. Any other
// well-formed bag (keys out of order or repeated) is decoded — a
// repeated key keeps its last value, as a map would — and re-encoded
// into a fresh canonical row. It never panics, whatever buf holds.
func ParseAttrRow(buf []byte) (AttrRow, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("core: truncated attrs header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	rest := buf[2:]
	canonical := true
	var prev []byte
	for i := 0; i < n; i++ {
		f, next, ok := cutAttrField(rest)
		if !ok {
			return nil, 0, fmt.Errorf("core: malformed attr field %d of %d", i, n)
		}
		if i > 0 && bytes.Compare(prev, f.key) >= 0 {
			canonical = false
		}
		prev, rest = f.key, next
	}
	used := len(buf) - len(rest)
	row := AttrRow(buf[:used:used])
	if !canonical {
		// Re-encoding a deduplicated bag cannot exceed the limits the
		// original bytes already met.
		enc, _ := EncodeAttrs(nil, row.Attrs())
		row = enc
	}
	return row, used, nil
}

// Empty reports whether the row holds no fields.
//
//metriclint:noalloc
func (r AttrRow) Empty() bool { return len(r) < 2 || r[0]|r[1] == 0 }

// Bytes returns exactly the bag's encoding: the view without any bytes
// past the bag (the two-byte zero count for the empty bag).
func (r AttrRow) Bytes() []byte {
	if r.Empty() {
		return []byte{0, 0}
	}
	it := r.Fields()
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}
	used := len(r) - len(it.rest)
	return r[:used:used]
}

// Attrs decodes the row into a fresh map (nil for the empty bag).
func (r AttrRow) Attrs() Attrs {
	if r.Empty() {
		return nil
	}
	a := make(Attrs, binary.LittleEndian.Uint16(r))
	it := r.Fields()
	for f, ok := it.Next(); ok; f, ok = it.Next() {
		a[string(f.key)] = f.value()
	}
	return a
}

// Fields returns an iterator over the row's fields in key order.
//
//metriclint:noalloc
func (r AttrRow) Fields() AttrIter {
	if r.Empty() {
		return AttrIter{}
	}
	return AttrIter{rest: r[2:], n: int(binary.LittleEndian.Uint16(r))}
}

// Lookup returns the field named key. Keys are sorted, so the walk
// stops at the first key past it; the fields before it are skipped
// without being decoded.
//
//metriclint:noalloc
func (r AttrRow) Lookup(key string) (AttrField, bool) {
	if r.Empty() {
		return AttrField{}, false
	}
	b := r[2:]
	for n := int(binary.LittleEndian.Uint16(r)); n > 0; n-- {
		k, rest, ok := cutAttrString(b)
		if !ok {
			break
		}
		switch c := compareBytesString(k, key); {
		case c == 0:
			f, _, ok := cutAttrField(b)
			return f, ok
		case c > 0:
			return AttrField{}, false
		}
		if b, ok = skipAttrValue(rest); !ok {
			break
		}
	}
	return AttrField{}, false
}

// AttrIter walks the fields of an AttrRow; Next returns them in key
// order and false once the bag is exhausted.
type AttrIter struct {
	rest []byte
	n    int
}

// Next returns the next field, or false at the end of the bag (or at a
// malformed field, which ends it).
//
//metriclint:noalloc
func (it *AttrIter) Next() (AttrField, bool) {
	if it.n == 0 {
		return AttrField{}, false
	}
	f, rest, ok := cutAttrField(it.rest)
	if !ok {
		it.n = 0
		return AttrField{}, false
	}
	it.rest, it.n = rest, it.n-1
	return f, true
}

// AttrField is one field of an AttrRow, viewed in place: its key and
// its typed value, read from the encoded bytes without copying.
type AttrField struct {
	key  []byte
	kind AttrKind
	// data is the 8 payload bytes of a number, the bytes of a string,
	// or the encoded tag list (after its count) of a tag set.
	data []byte
	tags int
}

// Key returns the field name's bytes (read-only).
func (f AttrField) Key() []byte { return f.key }

// Kind returns the variant of the value.
func (f AttrField) Kind() AttrKind { return f.kind }

// Numeric returns the value as a float64 and whether it is numeric at
// all — the widened domain of AttrValue.Numeric.
//
//metriclint:noalloc
func (f AttrField) Numeric() (float64, bool) {
	switch f.kind {
	case AttrInt:
		return float64(int64(binary.LittleEndian.Uint64(f.data))), true
	case AttrFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(f.data)), true
	}
	return 0, false
}

// Str returns the string payload's bytes (meaningful for AttrString;
// read-only).
func (f AttrField) Str() []byte { return f.data }

// CompareStr compares the string payload with s byte-wise, like
// strings.Compare.
//
//metriclint:noalloc
func (f AttrField) CompareStr(s string) int { return compareBytesString(f.data, s) }

// Tags returns an iterator over the tag set (meaningful for AttrTags).
//
//metriclint:noalloc
func (f AttrField) Tags() TagIter { return TagIter{rest: f.data, n: f.tags} }

// HasTag reports whether the tag set contains s.
//
//metriclint:noalloc
func (f AttrField) HasTag(s string) bool {
	it := f.Tags()
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		if compareBytesString(t, s) == 0 {
			return true
		}
	}
	return false
}

// value decodes the field into an AttrValue (copying its strings).
func (f AttrField) value() AttrValue {
	switch f.kind {
	case AttrInt:
		return IntValue(int64(binary.LittleEndian.Uint64(f.data)))
	case AttrFloat:
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(f.data)))
	case AttrString:
		return StringValue(string(f.data))
	}
	tags := make([]string, 0, f.tags)
	it := f.Tags()
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		tags = append(tags, string(t))
	}
	return TagsValue(tags...)
}

// TagIter walks the tags of an AttrTags field in stored order.
type TagIter struct {
	rest []byte
	n    int
}

// Next returns the next tag's bytes, or false after the last.
//
//metriclint:noalloc
func (it *TagIter) Next() ([]byte, bool) {
	if it.n == 0 {
		return nil, false
	}
	t, rest, ok := cutAttrString(it.rest)
	if !ok {
		it.n = 0
		return nil, false
	}
	it.rest, it.n = rest, it.n-1
	return t, true
}

// cutAttrField splits the first field off b; ok is false when b is
// shorter than the field it announces or names an unknown kind.
//
//metriclint:noalloc
func cutAttrField(b []byte) (f AttrField, rest []byte, ok bool) {
	key, value, ok := cutAttrString(b)
	if !ok {
		return AttrField{}, nil, false
	}
	if rest, ok = skipAttrValue(value); !ok {
		return AttrField{}, nil, false
	}
	f = AttrField{key: key, kind: AttrKind(value[0])}
	payload := value[1 : len(value)-len(rest)]
	switch f.kind {
	case AttrInt, AttrFloat:
		f.data = payload
	case AttrString:
		f.data = payload[2:]
	case AttrTags:
		f.tags, f.data = int(binary.LittleEndian.Uint16(payload)), payload[2:]
	}
	return f, rest, true
}

// skipAttrValue returns b past the kind byte and payload at its front;
// ok is false when b is shorter than they announce or names an unknown
// kind.
//
//metriclint:noalloc
func skipAttrValue(b []byte) (rest []byte, ok bool) {
	if len(b) < 1 {
		return nil, false
	}
	kind, b := AttrKind(b[0]), b[1:]
	switch kind {
	case AttrInt, AttrFloat:
		if len(b) < 8 {
			return nil, false
		}
		return b[8:], true
	case AttrString:
		_, rest, ok = cutAttrString(b)
		return rest, ok
	case AttrTags:
		if len(b) < 2 {
			return nil, false
		}
		rest = b[2:]
		for n := int(binary.LittleEndian.Uint16(b)); n > 0; n-- {
			if _, rest, ok = cutAttrString(rest); !ok {
				return nil, false
			}
		}
		return rest, true
	}
	return nil, false
}

// cutAttrString splits one uint16-length-prefixed string off b.
//
//metriclint:noalloc
func cutAttrString(b []byte) (s, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b)-2 < n {
		return nil, nil, false
	}
	return b[2 : 2+n], b[2+n:], true
}

// compareBytesString is strings.Compare(string(b), s) without the
// conversion.
//
//metriclint:noalloc
func compareBytesString(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"

	"galsim/internal/simtime"
)

// Encoder appends the fields of a state body to one buffer. Each owning
// package writes its section through it: counts, counters, indices and
// times as varints, floats as their 8 IEEE-754 bytes, bools as one byte.
// It cannot fail.
type Encoder struct {
	b []byte
}

// NewEncoder returns an encoder that appends to b.
func NewEncoder(b []byte) *Encoder { return &Encoder{b: b} }

// Bytes returns everything appended so far, after the buffer NewEncoder
// was given.
func (e *Encoder) Bytes() []byte { return e.b }

// Uvarint appends v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends v as a zigzag varint: small magnitudes of either sign take
// one byte.
func (e *Encoder) Int(v int) { e.b = binary.AppendVarint(e.b, int64(v)) }

// F64 appends v's IEEE-754 bits, little-endian, so every value (NaNs
// included) comes back bit for bit.
func (e *Encoder) F64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// Bool appends v as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	var x byte
	if v {
		x = 1
	}
	e.b = append(e.b, x)
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.b = append(e.b, v) }

// Time appends a simulated time: simtime.Never, the value of every
// timestamp not yet reached, as the single byte 0, any other time as its
// zigzag varint plus one.
func (e *Encoder) Time(t simtime.Time) {
	if t == simtime.Never {
		e.b = append(e.b, 0)
		return
	}
	e.Uvarint(zigzag(int64(t)) + 1)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Decoder reads a state body an Encoder wrote, strictly: a varint must use
// its shortest form and a bool must be 0 or 1, so a body that decodes has
// exactly one encoding and re-encodes to the same bytes. The first failure
// sticks: later reads return zero values and Err reports it, so a section
// reads its fields straight through and checks once.
type Decoder struct {
	b   []byte // the unread bytes
	err error
}

// NewDecoder returns a decoder over b, which it never modifies.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a failure found in a decoded value, unless one is already
// recorded.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) corrupt(reason string) {
	if d.err == nil {
		d.err = &CorruptError{Reason: "state: " + reason}
	}
	d.b = nil
}

// Finish returns the first failure, or a CorruptError when bytes remain
// unread: a body must end where its last section does.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.corrupt(fmt.Sprintf("%d bytes after the last section", len(d.b)))
	}
	return d.err
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.corrupt("truncated or overlong varint")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.corrupt("varint not in its shortest form")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a zigzag varint that must fit an int.
func (d *Decoder) Int() int {
	u := d.Uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.corrupt("integer out of range")
		return 0
	}
	return int(v)
}

// F64 reads 8 bytes of IEEE-754 bits.
func (d *Decoder) F64() float64 {
	p := d.Raw(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.corrupt("bool byte not 0 or 1")
	return false
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	p := d.Raw(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Raw returns the next n bytes, aliasing the body, or nil after a failure.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.corrupt("truncated section")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Time reads a time Encoder.Time wrote.
func (d *Decoder) Time() simtime.Time {
	u := d.Uvarint()
	if u == 0 {
		return simtime.Never
	}
	u--
	t := simtime.Time(int64(u>>1) ^ -int64(u&1))
	if t == simtime.Never { // Never's encoding is the byte 0 alone
		d.corrupt("time not in its shortest form")
	}
	return t
}

// Len reads the count of a variable-length list whose elements take at
// least min bytes each (min ≥ 1). A count the unread bytes cannot hold
// fails here, before the caller sizes anything by it, so no length field
// allocates beyond the bytes that remain.
func (d *Decoder) Len(min int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/min) {
		d.corrupt(fmt.Sprintf("count %d exceeds the %d bytes that remain", n, len(d.b)))
		return 0
	}
	return int(n)
}

// String appends s, its length first.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// String reads a string Encoder.String wrote.
func (d *Decoder) String() string {
	return string(d.Raw(d.Len(1)))
}

// Bitmap appends n flags packed eight to a byte, lowest bit first; bit
// reports flag i.
func (e *Encoder) Bitmap(n int, bit func(i int) bool) {
	for i := 0; i < n; i += 8 {
		var x byte
		for j := 0; j < 8 && i+j < n; j++ {
			if bit(i + j) {
				x |= 1 << j
			}
		}
		e.b = append(e.b, x)
	}
}

// Bitmap reads n flags Encoder.Bitmap packed, aliasing the body; the bits
// past the n-th must be zero. Bit tests a flag.
func (d *Decoder) Bitmap(n int) []byte {
	bm := d.Raw((n + 7) / 8)
	if n%8 != 0 && len(bm) > 0 && bm[len(bm)-1]>>(n%8) != 0 {
		d.corrupt("bitmap padding bits set")
		return nil
	}
	return bm
}

// Bit reports flag i of a bitmap Decoder.Bitmap read; a bitmap a failed
// read left nil has no flag set.
func Bit(bm []byte, i int) bool {
	return i>>3 < len(bm) && bm[i>>3]&(1<<(i&7)) != 0
}

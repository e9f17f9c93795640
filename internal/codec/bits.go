package codec

import (
	"errors"
	"fmt"
	"math/bits"
)

// BitWriter packs bits MSB-first into a byte slice. It is the entropy-coder
// substrate; the decoder-IP timing model charges work per bit parsed, so
// Bits stays exact. Bits gather in a 64-bit accumulator and leave it a whole
// byte at a time.
type BitWriter struct {
	buf  []byte
	acc  uint64 // the low nAcc bits are pending, most significant first
	nAcc uint   // < 8 between puts
	bits int64
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// put appends the low n bits of v, most significant first. v must have no
// bits set at or above n; n may reach 65 when v fits in 64 bits.
func (w *BitWriter) put(v uint64, n uint) {
	if n > 56 { // keep nAcc+n within the accumulator
		w.put(v>>32, n-32)
		v, n = v&(1<<32-1), 32
	}
	w.acc = w.acc<<n | v
	w.nAcc += n
	w.bits += int64(n)
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint32) { w.put(uint64(b&1), 1) }

// WriteBits appends the low n bits of v, most significant first. n <= 32.
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("codec: WriteBits n > 32")
	}
	w.put(uint64(v)&(1<<n-1), n)
}

// WriteUE appends v as an unsigned Exp-Golomb code (as in H.264 ue(v)): n
// zeros, then the n+1 bits of v+1, written as one 2n+1-bit put.
func (w *BitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) - 1
	w.put(x, 2*n+1)
}

// WriteSE appends v as a signed Exp-Golomb code (se(v) mapping).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(v)*2 - 1
	} else {
		u = uint32(-v) * 2
	}
	w.WriteUE(u)
}

// Bits returns the number of bits written so far.
func (w *BitWriter) Bits() int64 { return w.bits }

// Bytes flushes the partial byte (zero-padded) and returns the buffer. The
// writer remains usable; further writes continue bit-exact after the pad is
// dropped on the next flush.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	if w.nAcc > 0 {
		out = append(out, byte(w.acc<<(8-w.nAcc)))
	}
	return out
}

// ErrBitstream is returned when a reader runs past the end of the stream or
// decodes a malformed code.
var ErrBitstream = errors.New("codec: malformed or truncated bitstream")

// errUEPrefix reports an Exp-Golomb prefix of more than 32 zeros.
var errUEPrefix = fmt.Errorf("%w: ue prefix too long", ErrBitstream)

// BitReader consumes bits MSB-first from a byte slice. Bytes load into a
// 64-bit window; reads take bits off its top.
type BitReader struct {
	buf  []byte
	pos  int    // next byte to load into acc
	acc  uint64 // unread bits, left-aligned; bits below the top nAcc are zero
	nAcc uint
	bits int64
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// refill loads whole bytes until the window holds more than 56 bits or the
// stream is exhausted.
func (r *BitReader) refill() {
	for r.nAcc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nAcc)
		r.pos++
		r.nAcc += 8
	}
}

// take consumes n <= 64 bits the window is known to hold.
func (r *BitReader) take(n uint) uint64 {
	v := r.acc >> (64 - n) // a shift by 64 yields 0, so take(0) is 0
	r.acc <<= n
	r.nAcc -= n
	r.bits += int64(n)
	return v
}

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint32, error) {
	return r.ReadBits(1)
}

// ReadBits consumes n bits (n <= 32) and returns them right-aligned.
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic("codec: ReadBits n > 32")
	}
	if r.nAcc < n {
		r.refill()
		if r.nAcc < n {
			return 0, ErrBitstream
		}
	}
	return uint32(r.take(n)), nil
}

// ReadUE consumes an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	r.refill()
	n := uint(bits.LeadingZeros64(r.acc))
	switch {
	case n > 32 && r.nAcc > 32:
		// More than 32 zeros are in the window, whether or not a one
		// follows them.
		return 0, errUEPrefix
	case n >= r.nAcc:
		// The stream ends inside the prefix.
		return 0, ErrBitstream
	}
	r.take(n + 1)
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<n | uint64(rest)) - 1), nil
}

// ReadSE consumes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// BitsRead returns the number of bits consumed so far.
func (r *BitReader) BitsRead() int64 { return r.bits }

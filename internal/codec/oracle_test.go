package codec

// Reference oracles: the straightforward kernels the optimized codec paths
// replaced. They live only in tests; the equivalence tests in
// kernels_test.go hold the production kernels to them bit for bit.

import "fmt"

// refBitWriter is the bit-at-a-time writer BitWriter replaced, kept as the
// oracle the word-at-a-time writer must match bit for bit.
type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
	bits int64
}

// newRefBitWriter returns an empty writer.
func newRefBitWriter() *refBitWriter { return &refBitWriter{} }

// WriteBit appends one bit.
func (w *refBitWriter) WriteBit(b uint32) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n <= 32.
func (w *refBitWriter) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("codec: WriteBits n > 32")
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(v >> uint(i))
	}
}

// WriteUE appends v as an unsigned Exp-Golomb code (as in H.264 ue(v)).
func (w *refBitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(0)
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(0)
	}
	for i := int(n); i >= 0; i-- {
		w.WriteBit(uint32(x >> uint(i)))
	}
}

// WriteSE appends v as a signed Exp-Golomb code (se(v) mapping).
func (w *refBitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(v)*2 - 1
	} else {
		u = uint32(-v) * 2
	}
	w.WriteUE(u)
}

// Bits returns the number of bits written so far.
func (w *refBitWriter) Bits() int64 { return w.bits }

// Bytes flushes the partial byte (zero-padded) and returns the buffer. The
// writer remains usable; further writes continue bit-exact after the pad is
// dropped on the next flush.
func (w *refBitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// refBitReader is the bit-at-a-time reader BitReader replaced: the oracle
// for values, errors and BitsRead.
type refBitReader struct {
	buf  []byte
	pos  int  // byte position
	nCur uint // bits consumed from buf[pos]
	bits int64
}

// newRefBitReader wraps data for reading.
func newRefBitReader(data []byte) *refBitReader { return &refBitReader{buf: data} }

// ReadBit consumes one bit.
func (r *refBitReader) ReadBit() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrBitstream
	}
	b := (r.buf[r.pos] >> (7 - r.nCur)) & 1
	r.nCur++
	r.bits++
	if r.nCur == 8 {
		r.nCur = 0
		r.pos++
	}
	return uint32(b), nil
}

// ReadBits consumes n bits (n <= 32) and returns them right-aligned.
func (r *refBitReader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic("codec: ReadBits n > 32")
	}
	var v uint32
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// ReadUE consumes an unsigned Exp-Golomb code.
func (r *refBitReader) ReadUE() (uint32, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("%w: ue prefix too long", ErrBitstream)
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<n | uint64(rest)) - 1), nil
}

// ReadSE consumes a signed Exp-Golomb code.
func (r *refBitReader) ReadSE() (int32, error) {
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
func (r *refBitReader) BitsRead() int64 { return r.bits }

// refMotionSearch is the copy-then-SAD full search MotionSearch replaced:
// every candidate is copied through the clamping CopyBlock and compared in
// full.
func refMotionSearch(ref *Frame, x0, y0, size, radius int, src []byte) (MotionVector, int) {
	cand := make([]byte, size*size*BytesPerPixel)
	ref.CopyBlock(x0, y0, size, cand)
	best := MotionVector{}
	bestSAD := SAD(src, cand)
	if bestSAD == 0 {
		return best, 0
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			ref.CopyBlock(x0+dx, y0+dy, size, cand)
			if sad := SAD(src, cand); sad < bestSAD {
				bestSAD = sad
				best = MotionVector{DX: int8(dx), DY: int8(dy)}
				if bestSAD == 0 {
					return best, 0
				}
			}
		}
	}
	return best, bestSAD
}

// refCompensateBi is the two-copy bidirectional average CompensateBi
// replaced.
func refCompensateBi(back, fwd *Frame, x0, y0, size int, mvb, mvf MotionVector, dst []byte) {
	tmp := make([]byte, len(dst))
	Compensate(back, x0, y0, size, mvb, dst)
	Compensate(fwd, x0, y0, size, mvf, tmp)
	for i := range dst {
		dst[i] = byte((int(dst[i]) + int(tmp[i]) + 1) / 2)
	}
}

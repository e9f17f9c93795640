package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// randomFrame fills a w x h frame from one of three content kinds, so the
// searches see exact matches, ties and noise: 0 is full-range noise, 1 is
// two-level noise (many equal SADs), 2 is a smooth gradient with light noise.
func randomFrame(rng *rand.Rand, w, h, kind int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for c := 0; c < BytesPerPixel; c++ {
				var v int
				switch kind {
				case 0:
					v = rng.Intn(256)
				case 1:
					v = 100 + rng.Intn(2)
				default:
					v = 4*x + 3*y + 20*c + rng.Intn(3)
				}
				f.Pix[f.Offset(x, y)+c] = byte(v)
			}
		}
	}
	return f
}

// searchSource returns a source block for (x0, y0): an exact copy of a
// displaced reference block (so SAD 0 and the early return are reachable),
// a perturbed copy, or unrelated noise.
func searchSource(rng *rand.Rand, ref *Frame, x0, y0, size int) []byte {
	src := make([]byte, size*size*BytesPerPixel)
	switch rng.Intn(3) {
	case 0:
		ref.CopyBlock(x0+rng.Intn(9)-4, y0+rng.Intn(9)-4, size, src)
	case 1:
		ref.CopyBlock(x0+rng.Intn(5)-2, y0+rng.Intn(5)-2, size, src)
		for i := range src {
			src[i] += byte(rng.Intn(5) - 2)
		}
	default:
		rng.Read(src)
	}
	return src
}

func TestMotionSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const w, h = 24, 20
	for _, size := range []int{4, 8} {
		for kind := 0; kind < 3; kind++ {
			ref := randomFrame(rng, w, h, kind)
			for _, radius := range []int{0, 3, 16} {
				// Every block origin, so the edge and corner blocks whose
				// candidates cross the frame boundary are all covered.
				for y0 := 0; y0+size <= h; y0++ {
					for x0 := 0; x0+size <= w; x0++ {
						src := searchSource(rng, ref, x0, y0, size)
						mv, sad := MotionSearch(ref, x0, y0, size, radius, src)
						wmv, wsad := refMotionSearch(ref, x0, y0, size, radius, src)
						if mv != wmv || sad != wsad {
							t.Fatalf("size %d kind %d radius %d at (%d,%d): got %+v/%d, oracle %+v/%d",
								size, kind, radius, x0, y0, mv, sad, wmv, wsad)
						}
					}
				}
			}
		}
	}
}

func TestCompensateBiMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const w, h = 24, 20
	for _, size := range []int{2, 4, 8, 16} {
		back, fwd := randomFrame(rng, w, h, 0), randomFrame(rng, w, h, 2)
		got := make([]byte, size*size*BytesPerPixel)
		want := make([]byte, len(got))
		for y0 := 0; y0+size <= h; y0++ {
			for x0 := 0; x0+size <= w; x0++ {
				mvb := MotionVector{DX: int8(rng.Intn(33) - 16), DY: int8(rng.Intn(33) - 16)}
				mvf := MotionVector{DX: int8(rng.Intn(33) - 16), DY: int8(rng.Intn(33) - 16)}
				CompensateBi(back, fwd, x0, y0, size, mvb, mvf, got)
				refCompensateBi(back, fwd, x0, y0, size, mvb, mvf, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("size %d at (%d,%d) mvs %+v %+v: prediction differs", size, x0, y0, mvb, mvf)
				}
			}
		}
	}
}

// refTransform is the generic butterfly path for any size, with the
// inverse's normalization, exactly as every size ran before the 4x4 case
// was unrolled.
func refTransform(block []int32, n int, inverse bool) {
	hadamardRows(block, n)
	transpose(block, n)
	hadamardRows(block, n)
	transpose(block, n)
	if !inverse {
		return
	}
	scale := int32(n * n)
	half := scale / 2
	for i, v := range block {
		if v >= 0 {
			block[i] = (v + half) / scale
		} else {
			block[i] = -((-v + half) / scale)
		}
	}
}

func TestHadamard4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20000; iter++ {
		in := make([]int32, 16)
		for i := range in {
			switch iter % 3 {
			case 0: // full int32 range, so wrapping sums are compared too
				in[i] = int32(rng.Uint32())
			case 1: // residual range
				in[i] = int32(rng.Intn(511) - 255)
			default: // dequantized coefficients
				in[i] = int32(rng.Intn(41)-20) * 8
			}
		}
		for _, inverse := range []bool{false, true} {
			got := append([]int32(nil), in...)
			want := append([]int32(nil), in...)
			if inverse {
				InverseTransform(got, 4)
			} else {
				ForwardTransform(got, 4)
			}
			refTransform(want, 4, inverse)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("inverse=%v input %v: got %v, generic %v", inverse, in, got, want)
				}
			}
		}
	}
}

// bitOp is one entropy-coder call, applied alike to the production and the
// oracle writers and readers.
type bitOp struct {
	kind int // 0 bit, 1 bits, 2 ue, 3 se
	v    uint32
	n    uint
}

func randomBitOps(rng *rand.Rand, count int) []bitOp {
	ops := make([]bitOp, count)
	for i := range ops {
		op := bitOp{kind: rng.Intn(4)}
		switch op.kind {
		case 0:
			op.v = uint32(rng.Intn(2))
		case 1:
			op.n = uint(rng.Intn(33))
			op.v = rng.Uint32()
		case 2, 3:
			// Mostly small codes, as the coefficient coder writes, with
			// occasional values at every magnitude up to the full range.
			if rng.Intn(4) == 0 {
				op.v = rng.Uint32() >> uint(rng.Intn(32))
			} else {
				op.v = uint32(rng.Intn(64))
			}
		}
		ops[i] = op
	}
	return ops
}

type bitWriter interface {
	WriteBit(uint32)
	WriteBits(uint32, uint)
	WriteUE(uint32)
	WriteSE(int32)
	Bits() int64
	Bytes() []byte
}

func (op bitOp) write(w bitWriter) {
	switch op.kind {
	case 0:
		w.WriteBit(op.v)
	case 1:
		w.WriteBits(op.v, op.n)
	case 2:
		w.WriteUE(op.v)
	default:
		w.WriteSE(int32(op.v))
	}
}

type bitReader interface {
	ReadBit() (uint32, error)
	ReadBits(uint) (uint32, error)
	ReadUE() (uint32, error)
	ReadSE() (int32, error)
	BitsRead() int64
}

func (op bitOp) read(r bitReader) (uint32, error) {
	switch op.kind {
	case 0:
		return r.ReadBit()
	case 1:
		return r.ReadBits(op.n)
	case 2:
		return r.ReadUE()
	default:
		v, err := r.ReadSE()
		return uint32(v), err
	}
}

func TestBitWriterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 300; iter++ {
		w, ref := NewBitWriter(), newRefBitWriter()
		for i, op := range randomBitOps(rng, 1+rng.Intn(200)) {
			op.write(w)
			op.write(ref)
			if w.Bits() != ref.Bits() {
				t.Fatalf("iter %d op %d %+v: Bits %d, oracle %d", iter, i, op, w.Bits(), ref.Bits())
			}
			if i%17 == 0 && !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("iter %d op %d %+v: mid-stream Bytes differ", iter, i, op)
			}
		}
		if !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("iter %d: Bytes differ", iter)
		}
	}
	// The widest code: ue(2^32-1) is 65 bits, past one 64-bit word.
	w, ref := NewBitWriter(), newRefBitWriter()
	for _, wr := range []bitWriter{w, ref} {
		wr.WriteBit(1)
		wr.WriteUE(^uint32(0))
		wr.WriteSE(-1 << 31)
	}
	if w.Bits() != ref.Bits() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatal("full-range codes differ from the oracle")
	}
}

// compareReaders runs ops against both readers over data and fails on the
// first difference in value, error or BitsRead. After the first error the
// reader state is unspecified, so the run stops there.
func compareReaders(t *testing.T, what string, data []byte, ops []bitOp) {
	t.Helper()
	r, ref := NewBitReader(data), newRefBitReader(data)
	for i, op := range ops {
		v, err := op.read(r)
		wv, werr := op.read(ref)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("%s op %d %+v: err %v, oracle %v", what, i, op, err, werr)
		case err != nil:
			if err.Error() != werr.Error() || !errors.Is(err, ErrBitstream) {
				t.Fatalf("%s op %d %+v: err %q, oracle %q", what, i, op, err, werr)
			}
			return
		case v != wv || r.BitsRead() != ref.BitsRead():
			t.Fatalf("%s op %d %+v: value %d bits %d, oracle %d bits %d",
				what, i, op, v, r.BitsRead(), wv, ref.BitsRead())
		}
	}
}

func TestBitReaderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		ops := randomBitOps(rng, 1+rng.Intn(60))
		w := NewBitWriter()
		for _, op := range ops {
			op.write(w)
		}
		data := w.Bytes()
		// The whole stream, then one more read than was written.
		compareReaders(t, "full", data, append(ops, bitOp{kind: 2}))
		// Every byte cut.
		for k := 0; k <= len(data); k++ {
			compareReaders(t, "byte cut", data[:k], ops)
		}
		// Every bit cut, zero-padded as the writer pads.
		for b := 0; b <= int(w.Bits()); b++ {
			cut := append([]byte(nil), data[:(b+7)/8]...)
			if b%8 != 0 {
				cut[len(cut)-1] &= 0xFF << uint(8-b%8)
			}
			compareReaders(t, "bit cut", cut, ops)
		}
		// The same ops over garbage.
		junk := make([]byte, rng.Intn(40))
		rng.Read(junk)
		compareReaders(t, "garbage", junk, ops)
	}
}

func TestReadUELongPrefix(t *testing.T) {
	ue := []bitOp{{kind: 2}, {kind: 2}}
	for zeros := 0; zeros <= 80; zeros++ {
		for tail := 0; tail <= 40; tail += 8 {
			w := newRefBitWriter()
			w.WriteBits(0, uint(zeros%32))
			for k := zeros - zeros%32; k > 0; k -= 32 {
				w.WriteBits(0, 32)
			}
			w.WriteBit(1)
			w.WriteBits(^uint32(0), uint(min(tail, 32)))
			compareReaders(t, "prefix", w.Bytes(), ue)
			compareReaders(t, "all zeros", make([]byte, (zeros+tail)/8), ue)
		}
	}
	r := NewBitReader(make([]byte, 5))
	if _, err := r.ReadUE(); err == nil || err.Error() != "codec: malformed or truncated bitstream: ue prefix too long" {
		t.Fatalf("40 zero bits: err %v, want the prefix error", err)
	}
}

func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref, fwd := randomFrame(rng, 32, 32, 2), randomFrame(rng, 32, 32, 0)
	src := searchSource(rng, ref, 8, 8, 4)
	dst := make([]byte, len(src))
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MotionSearch", func() { MotionSearch(ref, 8, 8, 4, 3, src) }},
		{"MotionSearch edge", func() { MotionSearch(ref, 0, 28, 4, 16, src) }},
		{"CompensateBi", func() {
			CompensateBi(ref, fwd, 0, 8, 4, MotionVector{DX: -2, DY: 1}, MotionVector{DX: 3}, dst)
		}},
		{"BestIntraMode", func() { BestIntraMode(ref, 8, 8, 4, src) }},
	} {
		if a := testing.AllocsPerRun(100, tc.fn); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, a)
		}
	}
}

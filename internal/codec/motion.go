package codec

// Motion estimation and compensation for P/B mabs. P mabs carry a motion
// vector into the previous reference frame; B mabs predict as the average of
// a backward and a forward reference block (§2.2 footnote 1).

// MotionVector is a full-pixel displacement into a reference frame.
type MotionVector struct {
	DX, DY int8
}

// MotionSearch finds the displacement within +/- radius (full search over a
// small window, as hardware estimators do at coarse level) that minimizes
// SAD against src (size*size*BytesPerPixel bytes) for the block at (x0, y0)
// in ref. It returns the best vector and its SAD. Candidates are visited in
// a fixed order with the zero vector first and replace the best only on a
// strictly lower SAD, so static content yields MV (0,0) deterministically
// and a candidate may stop summing as soon as it can no longer win.
func MotionSearch(ref *Frame, x0, y0, size, radius int, src []byte) (MotionVector, int) {
	if len(src) != size*size*BytesPerPixel {
		panic("codec: MotionSearch source block size mismatch")
	}
	best := MotionVector{}
	bestSAD := blockSAD(ref, x0, y0, size, src, int(^uint(0)>>1))
	if bestSAD == 0 {
		return best, 0
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if sad := blockSAD(ref, x0+dx, y0+dy, size, src, bestSAD); sad < bestSAD {
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

// blockSAD returns the SAD between src and the size x size block of ref at
// (x, y), summing row by row and returning early with a partial sum once it
// reaches limit. An in-bounds block is read straight off the frame stride;
// only a block crossing a frame edge pays for clamped reads, which match
// CopyBlock's.
func blockSAD(ref *Frame, x, y, size int, src []byte, limit int) int {
	rowBytes := size * BytesPerPixel
	s := 0
	if x < 0 || y < 0 || x+size > ref.W || y+size > ref.H {
		for dy := 0; dy < size && s < limit; dy++ {
			yy := clamp(y+dy, 0, ref.H-1)
			row := src[dy*rowBytes : (dy+1)*rowBytes]
			for dx := 0; dx < size; dx++ {
				o := ref.Offset(clamp(x+dx, 0, ref.W-1), yy)
				s += absDiff(row[dx*3], ref.Pix[o]) + absDiff(row[dx*3+1], ref.Pix[o+1]) + absDiff(row[dx*3+2], ref.Pix[o+2])
			}
		}
		return s
	}
	stride := ref.W * BytesPerPixel
	o := ref.Offset(x, y)
	for dy := 0; dy < size && s < limit; dy++ {
		a := ref.Pix[o : o+rowBytes]
		b := src[dy*rowBytes : (dy+1)*rowBytes]
		b = b[:len(a)]
		for i := range a {
			s += absDiff(a[i], b[i])
		}
		o += stride
	}
	return s
}

// absDiff is |a-b| without a data-dependent branch: the sign of a pixel
// difference is unpredictable, and a mispredicted branch costs more than
// the two ALU operations.
func absDiff(a, b byte) int {
	d := int(a) - int(b)
	m := d >> 63
	return (d ^ m) - m
}

// Compensate fills dst with the motion-compensated prediction: the block at
// (x0+mv.DX, y0+mv.DY) in ref.
func Compensate(ref *Frame, x0, y0, size int, mv MotionVector, dst []byte) {
	ref.CopyBlock(x0+int(mv.DX), y0+int(mv.DY), size, dst)
}

// CompensateBi fills dst (size*size*BytesPerPixel bytes) with the rounded
// average of predictions from two reference frames, as used by B mabs. The
// forward block is averaged in place, reading fwd with the same edge
// clamping as CopyBlock.
func CompensateBi(back, fwd *Frame, x0, y0, size int, mvb, mvf MotionVector, dst []byte) {
	Compensate(back, x0, y0, size, mvb, dst)
	x1, y1 := x0+int(mvf.DX), y0+int(mvf.DY)
	for dy := 0; dy < size; dy++ {
		y := clamp(y1+dy, 0, fwd.H-1)
		for dx := 0; dx < size; dx++ {
			so := fwd.Offset(clamp(x1+dx, 0, fwd.W-1), y)
			do := (dy*size + dx) * BytesPerPixel
			for c := 0; c < BytesPerPixel; c++ {
				dst[do+c] = byte((int(dst[do+c]) + int(fwd.Pix[so+c]) + 1) / 2)
			}
		}
	}
}

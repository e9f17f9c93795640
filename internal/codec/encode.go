package codec

import "fmt"

// Encoder compresses frames pushed in display order and emits encoded frames
// in decode order (anchors before the B frames that reference them). It runs
// a closed loop: predictions use reconstructed pixels, exactly what the
// decoder will see, so encoder and decoder reconstructions are bit-identical.
type Encoder struct {
	p Params

	display int // next display index to be pushed

	prevAnchor *Frame          // reconstruction of the last emitted anchor
	pendingB   []*pendingFrame // display-order B candidates awaiting next anchor

	scratch encScratch
}

type pendingFrame struct {
	frame *Frame
	index int
}

type encScratch struct {
	src   []byte
	pred  []byte
	resid [3][]int32
	cand  []byte
}

// NewEncoder returns an encoder for p, or an error for invalid parameters.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mb := p.MabBytes()
	n := p.MabSize * p.MabSize
	e := &Encoder{p: p}
	e.scratch = encScratch{
		src:  make([]byte, mb),
		pred: make([]byte, mb),
		cand: make([]byte, mb),
	}
	for c := 0; c < 3; c++ {
		e.scratch.resid[c] = make([]int32, n)
	}
	return e, nil
}

// Params returns the encoder configuration.
func (e *Encoder) Params() Params { return e.p }

// Output is one frame as the encoder emits it: the bitstream, the
// reconstruction a Decoder produces from that bitstream, and the decode
// work it takes. The loop is closed, so Recon and Work equal what
// Decoder.Decode returns for Encoded, bit for bit.
type Output struct {
	Encoded *EncodedFrame
	Recon   *Frame
	Work    *FrameWork
}

// Push encodes one display-order frame and returns zero or more encoded
// frames in decode order. With BFrames=0 every push returns exactly one
// frame; otherwise B frames are buffered until their forward anchor arrives.
func (e *Encoder) Push(f *Frame) ([]*EncodedFrame, error) {
	return encodedOnly(e.PushOutputs(f))
}

// PushOutputs is Push returning each emitted frame's reconstruction and
// decode work beside its bitstream.
func (e *Encoder) PushOutputs(f *Frame) ([]Output, error) {
	if f.W != e.p.Width || f.H != e.p.Height {
		return nil, fmt.Errorf("codec: frame %dx%d does not match params %dx%d", f.W, f.H, e.p.Width, e.p.Height)
	}
	idx := e.display
	e.display++

	isAnchor := e.p.BFrames == 0 || idx%(e.p.BFrames+1) == 0 || e.prevAnchor == nil
	if !isAnchor {
		e.pendingB = append(e.pendingB, &pendingFrame{frame: f.Clone(), index: idx})
		return nil, nil
	}

	ft := FrameP
	if idx%e.p.GOPLength == 0 || e.prevAnchor == nil {
		ft = FrameI
	}
	backRef := e.prevAnchor
	anchor, err := e.encodeFrame(f, idx, ft, backRef, nil)
	if err != nil {
		return nil, err
	}
	out := []Output{anchor}

	// Now the buffered B frames have both their references reconstructed.
	for _, pb := range e.pendingB {
		bf, err := e.encodeFrame(pb.frame, pb.index, FrameB, backRef, anchor.Recon)
		if err != nil {
			return nil, err
		}
		out = append(out, bf)
	}
	e.pendingB = e.pendingB[:0]
	e.prevAnchor = anchor.Recon
	return out, nil
}

// Flush encodes any buffered B frames as P frames (they degrade to
// single-reference prediction) and resets the pending queue. Each one
// predicts from the frame emitted before it, the reference the decoder
// holds once it has decoded that P frame.
func (e *Encoder) Flush() ([]*EncodedFrame, error) {
	return encodedOnly(e.FlushOutputs())
}

// FlushOutputs is Flush returning each emitted frame's reconstruction and
// decode work beside its bitstream.
func (e *Encoder) FlushOutputs() ([]Output, error) {
	var out []Output
	for _, pb := range e.pendingB {
		o, err := e.encodeFrame(pb.frame, pb.index, FrameP, e.prevAnchor, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
		e.prevAnchor = o.Recon
	}
	e.pendingB = e.pendingB[:0]
	return out, nil
}

// encodedOnly keeps the bitstreams of outs.
func encodedOnly(outs []Output, err error) ([]*EncodedFrame, error) {
	if err != nil || len(outs) == 0 {
		return nil, err
	}
	efs := make([]*EncodedFrame, len(outs))
	for i, o := range outs {
		efs[i] = o.Encoded
	}
	return efs, nil
}

// encodeFrame compresses one frame of the given type. back is the backward
// reference (nil only for I frames at stream start); fwd is the forward
// reference for B frames. The work it records per mab is what the decoder
// will parse: the bits from the mab type through the last coefficient, and
// the nonzero coefficients EncodeCoeffs wrote.
func (e *Encoder) encodeFrame(src *Frame, idx int, ft FrameType, back, fwd *Frame) (Output, error) {
	p := e.p
	n := p.MabSize
	recon := NewFrame(p.Width, p.Height)
	w := NewBitWriter()
	work := &FrameWork{
		Type:         ft,
		DisplayIndex: idx,
		Mabs:         make([]MabWork, 0, p.MabsPerFrame()),
	}

	w.WriteUE(uint32(ft))
	w.WriteUE(uint32(idx))
	w.WriteUE(uint32(p.Quant))

	threshold := int(e.p.InterThresholdPerPixel * float64(p.MabBytes()))

	for y0 := 0; y0 < p.Height; y0 += n {
		for x0 := 0; x0 < p.Width; x0 += n {
			src.CopyBlock(x0, y0, n, e.scratch.src)

			mt := MabI
			var mv, mvb, mvf MotionVector
			var mode IntraMode
			interSAD := int(^uint(0) >> 1)

			switch ft {
			case FrameP:
				if back != nil {
					mv, interSAD = MotionSearch(back, x0, y0, n, p.SearchRadius, e.scratch.src)
					if interSAD <= threshold {
						mt = MabP
					}
				}
			case FrameB:
				if back != nil && fwd != nil {
					var sb, sf int
					mvb, sb = MotionSearch(back, x0, y0, n, p.SearchRadius, e.scratch.src)
					mvf, sf = MotionSearch(fwd, x0, y0, n, p.SearchRadius, e.scratch.src)
					CompensateBi(back, fwd, x0, y0, n, mvb, mvf, e.scratch.cand)
					if bi := SAD(e.scratch.src, e.scratch.cand); bi <= threshold {
						mt, interSAD = MabB, bi
					} else if sb <= threshold {
						mt, interSAD, mv = MabP, sb, mvb
					} else {
						_ = sf
					}
				}
			}

			// Build the prediction; intra competes when inter was rejected.
			switch mt {
			case MabP:
				ref := back
				Compensate(ref, x0, y0, n, mv, e.scratch.pred)
			case MabB:
				CompensateBi(back, fwd, x0, y0, n, mvb, mvf, e.scratch.pred)
			default:
				mode, _ = BestIntraMode(recon, x0, y0, n, e.scratch.src)
				IntraPredict(recon, x0, y0, n, mode, e.scratch.pred)
			}
			_ = interSAD

			// Syntax: mab type, then prediction parameters.
			bitsBefore := w.Bits()
			mw := MabWork{Type: mt}
			w.WriteUE(uint32(mt))
			switch mt {
			case MabI:
				w.WriteUE(uint32(mode))
				mw.Mode = mode
				work.CountI++
			case MabP:
				w.WriteSE(int32(mv.DX))
				w.WriteSE(int32(mv.DY))
				mw.MV, mw.RefReads = mv, 1
				work.CountP++
			case MabB:
				w.WriteSE(int32(mvb.DX))
				w.WriteSE(int32(mvb.DY))
				w.WriteSE(int32(mvf.DX))
				w.WriteSE(int32(mvf.DY))
				mw.MVB, mw.MVF, mw.RefReads = mvb, mvf, 2
				work.CountB++
			}

			// Residual per channel: transform, quantize, entropy-code, and
			// reconstruct in the loop.
			for c := 0; c < 3; c++ {
				res := e.scratch.resid[c]
				for i := 0; i < n*n; i++ {
					res[i] = int32(e.scratch.src[i*3+c]) - int32(e.scratch.pred[i*3+c])
				}
				ForwardTransform(res, n)
				Quantize(res, p.Quant)
				mw.Nonzero += int16(EncodeCoeffs(w, res, n))
				Dequantize(res, p.Quant)
				InverseTransform(res, n)
				for i := 0; i < n*n; i++ {
					e.scratch.pred[i*3+c] = clampByte(int32(e.scratch.pred[i*3+c]) + res[i])
				}
			}
			recon.SetBlock(x0, y0, n, e.scratch.pred)
			mw.Bits = int32(w.Bits() - bitsBefore)
			work.Mabs = append(work.Mabs, mw)
		}
	}
	work.TotalBits = w.Bits()

	ef := &EncodedFrame{
		Type:         ft,
		DisplayIndex: idx,
		Data:         w.Bytes(),
		NumMabs:      len(work.Mabs),
	}
	return Output{Encoded: ef, Recon: recon, Work: work}, nil
}

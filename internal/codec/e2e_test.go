package codec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestEncodeDecodeMabSizes runs the full codec loop at every supported mab
// size (the Fig 12c sweep depends on all of them decoding correctly).
func TestEncodeDecodeMabSizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		p := DefaultParams(32, 32)
		p.MabSize = n
		p.Quant = 1
		enc, err := NewEncoder(p)
		if err != nil {
			t.Fatalf("mab %d: %v", n, err)
		}
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			src := gradientFrame(32, 32, i*3)
			efs, err := enc.Push(src)
			if err != nil {
				t.Fatalf("mab %d: %v", n, err)
			}
			for _, ef := range efs {
				got, work, err := dec.Decode(ef)
				if err != nil {
					t.Fatalf("mab %d: %v", n, err)
				}
				if !math.IsInf(PSNR(src, got), 1) {
					t.Fatalf("mab %d frame %d not lossless at quant=1", n, i)
				}
				if len(work.Mabs) != (32/n)*(32/n) {
					t.Fatalf("mab %d: %d works", n, len(work.Mabs))
				}
			}
		}
	}
}

// TestQuantizerQualityMonotonic: coarser quantizers must not improve PSNR
// and must not grow the bitstream.
func TestQuantizerQualityMonotonic(t *testing.T) {
	src := gradientFrame(64, 32, 1)
	prevPSNR := math.Inf(1)
	prevBits := int64(1 << 62)
	for _, q := range []int32{1, 4, 8, 16, 32} {
		p := DefaultParams(64, 32)
		p.Quant = q
		enc, _ := NewEncoder(p)
		dec, _ := NewDecoder(p)
		efs, err := enc.Push(src)
		if err != nil {
			t.Fatal(err)
		}
		got, work, err := dec.Decode(efs[0])
		if err != nil {
			t.Fatal(err)
		}
		ps := PSNR(src, got)
		if ps > prevPSNR+0.01 {
			t.Fatalf("quant %d: PSNR %.1f rose above %.1f", q, ps, prevPSNR)
		}
		// Bits shrink with coarser quant up to closed-loop prediction
		// noise (coarser reconstructions can worsen later predictions).
		if float64(work.TotalBits) > 1.15*float64(prevBits) {
			t.Fatalf("quant %d: bits %d grew well above %d", q, work.TotalBits, prevBits)
		}
		prevPSNR, prevBits = ps, work.TotalBits
	}
}

// TestEncoderFlushBFrames: trailing B candidates at stream end must degrade
// to single-reference frames and still decode.
func TestEncoderFlushBFrames(t *testing.T) {
	p := DefaultParams(16, 16)
	p.BFrames = 2
	p.Quant = 1
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)
	var decoded int
	for i := 0; i < 4; i++ { // anchors at 0 and 3; frames 1,2 buffered
		efs, err := enc.Push(gradientFrame(16, 16, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			if _, _, err := dec.Decode(ef); err != nil {
				t.Fatal(err)
			}
			decoded++
		}
	}
	// Push one more so frame 4 is buffered, then flush.
	efs, err := enc.Push(gradientFrame(16, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range efs {
		if _, _, err := dec.Decode(ef); err != nil {
			t.Fatal(err)
		}
		decoded++
	}
	flushed, err := enc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range flushed {
		if ef.Type == FrameB {
			t.Fatal("flushed frames must not be B (no forward anchor)")
		}
		if _, _, err := dec.Decode(ef); err != nil {
			t.Fatalf("flushed frame: %v", err)
		}
		decoded++
	}
	if decoded != 5 {
		t.Fatalf("decoded %d of 5", decoded)
	}
}

// TestBitstreamSizeTracksContent: noisy content must cost more bits than
// flat content — the property the decode-time model rides on.
func TestBitstreamSizeTracksContent(t *testing.T) {
	flat := NewFrame(64, 32)
	for i := range flat.Pix {
		flat.Pix[i] = 80
	}
	noisy := NewFrame(64, 32)
	seed := uint32(12345)
	for i := range noisy.Pix {
		seed = seed*1664525 + 1013904223
		noisy.Pix[i] = byte(seed >> 24)
	}
	size := func(f *Frame) int {
		p := DefaultParams(64, 32)
		enc, _ := NewEncoder(p)
		efs, err := enc.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		return efs[0].SizeBytes()
	}
	sf, sn := size(flat), size(noisy)
	if sn < 8*sf {
		t.Fatalf("noisy frame %dB should dwarf flat %dB", sn, sf)
	}
}

// TestDecoderWorkCountsConsistent: per-frame work counts must sum to the
// mab count and agree with the frame type.
func TestDecoderWorkCountsConsistent(t *testing.T) {
	p := DefaultParams(32, 16)
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)
	for i := 0; i < 6; i++ {
		efs, err := enc.Push(gradientFrame(32, 16, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			_, work, err := dec.Decode(ef)
			if err != nil {
				t.Fatal(err)
			}
			if work.CountI+work.CountP+work.CountB != len(work.Mabs) {
				t.Fatalf("counts %d+%d+%d != %d", work.CountI, work.CountP, work.CountB, len(work.Mabs))
			}
			if ef.Type == FrameI && (work.CountP != 0 || work.CountB != 0) {
				t.Fatal("I frames must be all-intra")
			}
			var bits int64
			for _, m := range work.Mabs {
				bits += int64(m.Bits)
			}
			if bits > work.TotalBits {
				t.Fatalf("mab bits %d exceed frame total %d", bits, work.TotalBits)
			}
		}
	}
}

// TestPushOutputsMatchDecoder holds the encoder's closed loop to the
// decoder: for every frame emitted by PushOutputs and FlushOutputs, the
// reconstruction and work must equal what Decoder.Decode returns for the
// bitstream, across mab sizes and B-frame depths, with the stream ending
// in flushed B candidates. Each frame is a moving gradient with a noise
// patch, so I, P and B mabs all occur.
func TestPushOutputsMatchDecoder(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for bf := 0; bf <= 3; bf++ {
			p := DefaultParams(32, 32)
			p.MabSize, p.BFrames, p.GOPLength = n, bf, 6
			enc, err := NewEncoder(p)
			if err != nil {
				t.Fatal(err)
			}
			dec, _ := NewDecoder(p)
			rng := rand.New(rand.NewSource(int64(10*n + bf)))
			var counts [3]int
			check := func(outs []Output) {
				for _, o := range outs {
					img, work, err := dec.Decode(o.Encoded)
					if err != nil {
						t.Fatalf("mab %d B %d: %v", n, bf, err)
					}
					if !reflect.DeepEqual(o.Recon, img) {
						t.Errorf("mab %d B %d frame %d: reconstruction differs from the decoder's", n, bf, o.Encoded.DisplayIndex)
					}
					if !reflect.DeepEqual(o.Work, work) {
						t.Errorf("mab %d B %d frame %d: work differs from the decoder's", n, bf, o.Encoded.DisplayIndex)
					}
					counts[0] += work.CountI
					counts[1] += work.CountP
					counts[2] += work.CountB
				}
			}
			// The last display index, 11, is a B position for every
			// depth, so each B-frame stream ends with a flush.
			for i := 0; i < 12; i++ {
				src := gradientFrame(32, 32, 2*i)
				x0, y0 := rng.Intn(24), rng.Intn(24)
				for y := y0; y < y0+8; y++ {
					for x := x0; x < x0+8; x++ {
						src.Set(x, y, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
					}
				}
				outs, err := enc.PushOutputs(src)
				if err != nil {
					t.Fatal(err)
				}
				check(outs)
			}
			outs, err := enc.FlushOutputs()
			if err != nil {
				t.Fatal(err)
			}
			if bf > 0 && len(outs) == 0 {
				t.Errorf("mab %d B %d: nothing left to flush", n, bf)
			}
			check(outs)
			if counts[0] == 0 || counts[1] == 0 || (bf > 0 && counts[2] == 0) {
				t.Errorf("mab %d B %d: mab types I/P/B = %v, want each exercised", n, bf, counts)
			}
		}
	}
}

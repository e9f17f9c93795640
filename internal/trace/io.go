package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"mach/internal/codec"
	"mach/internal/sim"
)

// Binary trace format: a compact varint-based encoding so traces can be
// recorded once (cmd/vgen) and replayed by later runs without re-encoding.
//
//	magic "MTRC" | version uvarint | header | frames
//
// Pixels are stored with a trivial byte-wise RLE, which compresses the
// synthetic workloads' flat regions well while staying dependency-free.
//
// Version 2 adds a per-frame arrival-time uvarint (picoseconds) after the
// encoded size — the delivery metadata Frame.Arrival carries. Version 1
// files still load, with every arrival zero (resident before playback).
//
// Trace files are untrusted input (they cross machines and fuzzers): every
// length that sizes an allocation is capped, and every decoded field is
// range-checked before use, so a corrupt or adversarial file yields an
// error — never a panic or a multi-gigabyte allocation.

const (
	magic      = "MTRC"
	version    = 2
	minVersion = 1

	// Hard caps on untrusted lengths. The JSON header is a few hundred
	// bytes in practice; a million frames is almost five hours at 60 fps.
	maxHeaderBytes  = 1 << 16
	maxFrames       = 1 << 20
	maxEncodedBytes = 1 << 30
	maxTotalBits    = int64(1) << 50
	maxArrival      = int64(1) << 60 // ~13 days of virtual time

	// Geometry caps: codec.Params.Validate accepts any positive multiple of
	// the mab size (the encoder has no reason to bound it), but a trace
	// header is attacker-controlled and its dimensions size every per-frame
	// pixel and mab-work allocation. 8192 px per axis covers 8K UHD, and
	// one GiB of total decoded payload is far beyond any real trace while
	// keeping the worst-case allocation a corrupt file can demand bounded.
	maxDimension    = 1 << 13
	maxDecodedBytes = int64(1) << 30
)

type wireHeader struct {
	Profile string       `json:"profile"`
	FPS     int          `json:"fps"`
	Params  codec.Params `json:"params"`
	Frames  int          `json:"frames"`
}

// Save writes the trace in binary form.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeUvarint(bw, version)
	hdr, err := json.Marshal(wireHeader{Profile: t.Profile, FPS: t.FPS, Params: t.Params, Frames: len(t.Frames)})
	if err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(hdr)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for i := range t.Frames {
		if err := writeFrame(bw, &t.Frames[i]); err != nil {
			return fmt.Errorf("trace: frame %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Load reads a binary trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, err
	}
	if string(got) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v < minVersion || v > version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("trace: header length %d exceeds %d", hlen, maxHeaderBytes)
	}
	hraw := make([]byte, hlen)
	if _, err := io.ReadFull(br, hraw); err != nil {
		return nil, err
	}
	var hdr wireHeader
	if err := json.Unmarshal(hraw, &hdr); err != nil {
		return nil, err
	}
	if err := hdr.Params.Validate(); err != nil {
		return nil, err
	}
	if hdr.Frames < 0 || hdr.Frames > maxFrames {
		return nil, fmt.Errorf("trace: frame count %d outside [0,%d]", hdr.Frames, maxFrames)
	}
	if hdr.FPS < 1 || hdr.FPS > 1000 {
		return nil, fmt.Errorf("trace: fps %d outside [1,1000]", hdr.FPS)
	}
	if hdr.Params.Width > maxDimension || hdr.Params.Height > maxDimension {
		return nil, fmt.Errorf("trace: dimensions %dx%d exceed %d",
			hdr.Params.Width, hdr.Params.Height, maxDimension)
	}
	frameBytes := int64(hdr.Params.Width) * int64(hdr.Params.Height) * int64(codec.BytesPerPixel)
	if int64(hdr.Frames)*frameBytes > maxDecodedBytes {
		return nil, fmt.Errorf("trace: decoded payload %d bytes exceeds %d",
			int64(hdr.Frames)*frameBytes, maxDecodedBytes)
	}
	// Frames are materialized one at a time — the slice is sized by the
	// (capped) declared count, but each element's payload allocations are
	// bounded by the already-validated Params geometry.
	t := &Trace{Profile: hdr.Profile, FPS: hdr.FPS, Params: hdr.Params, Frames: make([]Frame, hdr.Frames)}
	for i := 0; i < hdr.Frames; i++ {
		if err := readFrame(br, int(v), hdr, &t.Frames[i]); err != nil {
			return nil, fmt.Errorf("trace: frame %d: %w", i, err)
		}
	}
	return t, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	//lint:ignore pathcheck bufio.Writer errors are sticky; Save's final Flush returns the first one
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	//lint:ignore pathcheck bufio.Writer errors are sticky; Save's final Flush returns the first one
	w.Write(buf[:n])
}

func writeFrame(w *bufio.Writer, f *Frame) error {
	writeUvarint(w, uint64(f.Type))
	writeUvarint(w, uint64(f.DisplayIndex))
	writeUvarint(w, uint64(f.EncodedBytes))
	writeUvarint(w, uint64(f.Arrival)) // v2: delivery arrival metadata
	// Work records. TotalBits is stored explicitly: it includes frame
	// header bits beyond the per-mab sum.
	writeUvarint(w, uint64(f.Work.TotalBits))
	writeUvarint(w, uint64(len(f.Work.Mabs)))
	for _, m := range f.Work.Mabs {
		writeUvarint(w, uint64(m.Type))
		writeUvarint(w, uint64(m.Bits))
		writeUvarint(w, uint64(m.Nonzero))
		writeUvarint(w, uint64(m.RefReads))
		writeVarint(w, int64(m.MV.DX))
		writeVarint(w, int64(m.MV.DY))
		writeVarint(w, int64(m.MVB.DX))
		writeVarint(w, int64(m.MVB.DY))
		writeVarint(w, int64(m.MVF.DX))
		writeVarint(w, int64(m.MVF.DY))
		writeUvarint(w, uint64(m.Mode))
	}
	// Pixels: byte-wise RLE (value, runLen).
	pix := f.Decoded.Pix
	for i := 0; i < len(pix); {
		j := i + 1
		for j < len(pix) && pix[j] == pix[i] && j-i < 1<<20 {
			j++
		}
		if err := w.WriteByte(pix[i]); err != nil {
			return err
		}
		writeUvarint(w, uint64(j-i))
		i = j
	}
	return w.WriteByte(0xA5) // frame sentinel
}

func readFrame(r *bufio.Reader, v int, hdr wireHeader, f *Frame) error {
	p := hdr.Params
	readU := func() (uint64, error) { return binary.ReadUvarint(r) }
	readS := func() (int64, error) { return binary.ReadVarint(r) }

	ft, err := readU()
	if err != nil {
		return err
	}
	if ft > uint64(codec.FrameB) {
		return fmt.Errorf("frame type %d", ft)
	}
	di, err := readU()
	if err != nil {
		return err
	}
	// Display order is a permutation of decode order: the index must fall
	// inside the declared frame count.
	if di >= uint64(hdr.Frames) {
		return fmt.Errorf("display index %d outside [0,%d)", di, hdr.Frames)
	}
	eb, err := readU()
	if err != nil {
		return err
	}
	if eb > maxEncodedBytes {
		return fmt.Errorf("encoded size %d exceeds %d", eb, maxEncodedBytes)
	}
	f.Type = codec.FrameType(ft)
	f.DisplayIndex = int(di)
	f.EncodedBytes = int(eb)
	if v >= 2 {
		arr, err := readU()
		if err != nil {
			return err
		}
		if arr > uint64(maxArrival) {
			return fmt.Errorf("arrival %d exceeds %d", arr, maxArrival)
		}
		f.Arrival = sim.Time(arr)
	}

	totalBits, err := readU()
	if err != nil {
		return err
	}
	if totalBits > uint64(maxTotalBits) {
		return fmt.Errorf("total bits %d exceeds %d", totalBits, maxTotalBits)
	}
	nm, err := readU()
	if err != nil {
		return err
	}
	if nm > uint64(p.MabsPerFrame()) {
		return fmt.Errorf("mab count %d exceeds %d", nm, p.MabsPerFrame())
	}
	work := &codec.FrameWork{Type: f.Type, DisplayIndex: f.DisplayIndex, Mabs: make([]codec.MabWork, nm)}
	for i := range work.Mabs {
		m := &work.Mabs[i]
		vals := make([]uint64, 4)
		for k := range vals {
			if vals[k], err = readU(); err != nil {
				return err
			}
		}
		m.Type = codec.MabType(vals[0])
		m.Bits = int32(vals[1])
		m.Nonzero = int16(vals[2])
		m.RefReads = int8(vals[3])
		svals := make([]int64, 6)
		for k := range svals {
			if svals[k], err = readS(); err != nil {
				return err
			}
		}
		m.MV = codec.MotionVector{DX: int8(svals[0]), DY: int8(svals[1])}
		m.MVB = codec.MotionVector{DX: int8(svals[2]), DY: int8(svals[3])}
		m.MVF = codec.MotionVector{DX: int8(svals[4]), DY: int8(svals[5])}
		mode, err := readU()
		if err != nil {
			return err
		}
		m.Mode = codec.IntraMode(mode)
		switch m.Type {
		case codec.MabI:
			work.CountI++
		case codec.MabP:
			work.CountP++
		case codec.MabB:
			work.CountB++
		}
	}
	work.TotalBits = int64(totalBits)
	f.Work = work

	fr := codec.NewFrame(p.Width, p.Height)
	for i := 0; i < len(fr.Pix); {
		v, err := r.ReadByte()
		if err != nil {
			return err
		}
		run, err := readU()
		if err != nil {
			return err
		}
		if run == 0 || i+int(run) > len(fr.Pix) {
			return fmt.Errorf("pixel RLE overrun at %d (+%d)", i, run)
		}
		for k := 0; k < int(run); k++ {
			fr.Pix[i+k] = v
		}
		i += int(run)
	}
	f.Decoded = fr
	sentinel, err := r.ReadByte()
	if err != nil {
		return err
	}
	if sentinel != 0xA5 {
		return fmt.Errorf("bad frame sentinel %#x", sentinel)
	}
	return nil
}

// Summary is the JSON-exportable digest of a trace (no pixel payload).
type Summary struct {
	Profile         string  `json:"profile"`
	FPS             int     `json:"fps"`
	Width           int     `json:"width"`
	Height          int     `json:"height"`
	MabSize         int     `json:"mab_size"`
	Frames          int     `json:"frames"`
	EncodedBytes    int     `json:"encoded_bytes"`
	MabsI           int     `json:"mabs_i"`
	MabsP           int     `json:"mabs_p"`
	MabsB           int     `json:"mabs_b"`
	AvgBitsPerFrame float64 `json:"avg_bits_per_frame"`
}

// Summarize computes the trace digest.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Profile: t.Profile,
		FPS:     t.FPS,
		Width:   t.Params.Width,
		Height:  t.Params.Height,
		MabSize: t.Params.MabSize,
		Frames:  len(t.Frames),
	}
	var bits int64
	for i := range t.Frames {
		f := &t.Frames[i]
		s.EncodedBytes += f.EncodedBytes
		s.MabsI += f.Work.CountI
		s.MabsP += f.Work.CountP
		s.MabsB += f.Work.CountB
		bits += f.Work.TotalBits
	}
	if len(t.Frames) > 0 {
		s.AvgBitsPerFrame = float64(bits) / float64(len(t.Frames))
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Summarize())
}

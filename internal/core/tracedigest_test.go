package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mach/internal/codec"
	"mach/internal/trace"
	"mach/internal/video"
)

// traceDigestFile pins the codec bit for bit: one md5 per profile and mab
// size over everything a trace build produces. It lives beside the Result
// corpus and is rewritten by the same -update flag:
//
//	go test ./internal/core -run TestGoldenTraceDigests -update
const traceDigestFile = "trace_digests.json"

// traceDigestMabSizes are the pinned mab sizes: 4 is the default and takes
// the unrolled transform, 8 takes the generic butterfly.
var traceDigestMabSizes = []int{4, 8}

// TestGoldenTraceDigests rebuilds every profile at the testTrace scale
// with BuildTrace and compares an md5 of the full build output — each
// frame's bitstream, type, display index, reconstructed pixels and decode
// work — against the committed digests. A codec speed change must leave
// every one of them unchanged.
func TestGoldenTraceDigests(t *testing.T) {
	got := make(map[string]map[string]string)
	for _, mab := range traceDigestMabSizes {
		set := make(map[string]string)
		for _, key := range WorkloadKeys() {
			d, err := traceDigest(key, mab)
			if err != nil {
				t.Fatalf("%s mab %d: %v", key, mab, err)
			}
			set[key] = d
		}
		got[fmt.Sprintf("mab%d", mab)] = set
	}
	path := filepath.Join("testdata", "golden", traceDigestFile)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no trace digests (regenerate with -update after reviewing why): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for set := range want {
		if _, ok := got[set]; !ok {
			t.Errorf("stale digest set %s", set)
		}
	}
	for _, mab := range traceDigestMabSizes {
		set := fmt.Sprintf("mab%d", mab)
		for _, key := range WorkloadKeys() {
			w, ok := want[set][key]
			switch {
			case !ok:
				t.Errorf("%s/%s: no committed digest", set, key)
			case got[set][key] != w:
				t.Errorf("%s/%s: trace build drifted: md5 %s, golden %s", set, key, got[set][key], w)
			}
		}
		for key := range want[set] {
			if _, ok := got[set][key]; !ok {
				t.Errorf("%s/%s: stale digest for a missing workload", set, key)
			}
		}
	}
}

// traceDigestConfig is the stream scale the digests pin: the testTrace
// scale at one mab size. Its last display index, goldenFrames-1 = 15, is a
// B position for the B-frame profiles (V5-V8), so each of their streams
// ends in a B frame flushed as P.
func traceDigestConfig(mabSize int) video.StreamConfig {
	return video.StreamConfig{Width: 160, Height: 96, NumFrames: goldenFrames, Seed: 5, MabSize: mabSize, Quant: 8}
}

// encodedStream returns the bitstream BuildTrace's encoder emits for key:
// BuildTrace keeps only its sizes, so the digest and the decoder oracle
// take it from video.Synthesize, which runs the same generator and encoder.
func encodedStream(key string, sc video.StreamConfig) (*video.Stream, error) {
	prof, err := video.ProfileByKey(key)
	if err != nil {
		return nil, err
	}
	return video.Synthesize(prof, sc)
}

// traceDigest hashes what BuildTrace returns for one profile together with
// the encoder's bitstream.
func traceDigest(key string, mabSize int) (string, error) {
	sc := traceDigestConfig(mabSize)
	st, err := encodedStream(key, sc)
	if err != nil {
		return "", err
	}
	tr, err := BuildTrace(key, sc)
	if err != nil {
		return "", err
	}
	if len(tr.Frames) != len(st.Encoded) {
		return "", fmt.Errorf("%d trace frames for %d encoded", len(tr.Frames), len(st.Encoded))
	}
	h := md5.New()
	for i, fr := range tr.Frames {
		hashFrame(h, st.Encoded[i], &fr)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestBuildTraceMatchesDecoder holds BuildTrace, which takes each frame
// from the encoder's reconstruction, to the decoder: decoding the encoder's
// bitstream with codec.Decoder (trace.Build) must give the same trace frame
// by frame, for every profile at both pinned mab sizes. The B-frame
// profiles must include a trailing B frame flushed as P.
func TestBuildTraceMatchesDecoder(t *testing.T) {
	for _, mab := range traceDigestMabSizes {
		sc := traceDigestConfig(mab)
		for _, key := range WorkloadKeys() {
			st, err := encodedStream(key, sc)
			if err != nil {
				t.Fatalf("%s mab %d: %v", key, mab, err)
			}
			want, err := trace.Build(st.Profile.Key, st.Profile.FPS, st.Params, st.Encoded)
			if err != nil {
				t.Fatalf("%s mab %d: decoding: %v", key, mab, err)
			}
			got, err := BuildTrace(key, sc)
			if err != nil {
				t.Fatalf("%s mab %d: %v", key, mab, err)
			}
			if got.Profile != want.Profile || got.FPS != want.FPS || got.Params != want.Params {
				t.Errorf("%s mab %d: header %s/%d/%+v, decoder %s/%d/%+v", key, mab,
					got.Profile, got.FPS, got.Params, want.Profile, want.FPS, want.Params)
			}
			if len(got.Frames) != len(want.Frames) {
				t.Fatalf("%s mab %d: %d frames, decoder %d", key, mab, len(got.Frames), len(want.Frames))
			}
			flushedB := false
			for i := range got.Frames {
				g, w := &got.Frames[i], &want.Frames[i]
				switch {
				case g.Type != w.Type || g.DisplayIndex != w.DisplayIndex || g.EncodedBytes != w.EncodedBytes:
					t.Errorf("%s mab %d frame %d: %v/%d/%dB, decoder %v/%d/%dB", key, mab, i,
						g.Type, g.DisplayIndex, g.EncodedBytes, w.Type, w.DisplayIndex, w.EncodedBytes)
				case !reflect.DeepEqual(g.Decoded, w.Decoded):
					t.Errorf("%s mab %d frame %d: reconstruction differs from the decoded image", key, mab, i)
				case !reflect.DeepEqual(g.Work, w.Work):
					t.Errorf("%s mab %d frame %d: work differs from the decoder's", key, mab, i)
				}
				if b := st.Params.BFrames; b > 0 && g.Type == codec.FrameP && g.DisplayIndex%(b+1) != 0 {
					flushedB = true
				}
			}
			if st.Params.BFrames > 0 && !flushedB {
				t.Errorf("%s mab %d: no trailing B frame flushed as P; pick a length that leaves one", key, mab)
			}
		}
	}
}

func hashFrame(h hash.Hash, ef *codec.EncodedFrame, fr *trace.Frame) {
	put := func(vs ...any) {
		var b bytes.Buffer
		for _, v := range vs {
			if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
		h.Write(b.Bytes())
	}
	put(int64(len(ef.Data)))
	h.Write(ef.Data)
	put(ef.Type, int64(ef.DisplayIndex), int64(ef.NumMabs))
	put(fr.Type, int64(fr.DisplayIndex), int64(fr.EncodedBytes))
	put(int64(fr.Decoded.W), int64(fr.Decoded.H))
	h.Write(fr.Decoded.Pix)
	w := fr.Work
	put(w.Type, int64(w.DisplayIndex), w.TotalBits, int64(w.CountI), int64(w.CountP), int64(w.CountB), int64(len(w.Mabs)))
	mabs := make([]byte, 0, len(w.Mabs)*13)
	for _, m := range w.Mabs {
		mabs = append(mabs, byte(m.Type))
		mabs = binary.LittleEndian.AppendUint32(mabs, uint32(m.Bits))
		mabs = binary.LittleEndian.AppendUint16(mabs, uint16(m.Nonzero))
		mabs = append(mabs, byte(m.RefReads),
			byte(m.MV.DX), byte(m.MV.DY), byte(m.MVB.DX), byte(m.MVB.DY),
			byte(m.MVF.DX), byte(m.MVF.DY), byte(m.Mode))
	}
	h.Write(mabs)
}

// TestBuildTraceConcurrent runs two builds at once, as the fleet's worker
// pool does, at mab sizes no earlier test in this package touches, so any
// package state the codec initializes lazily is first written here; run
// under -race it fails on any such write. Both results must equal a serial
// build.
func TestBuildTraceConcurrent(t *testing.T) {
	builds := []struct {
		key string
		sc  video.StreamConfig
	}{
		{"V3", video.StreamConfig{Width: 32, Height: 32, NumFrames: 3, Seed: 9, MabSize: 2, Quant: 8}},
		{"V7", video.StreamConfig{Width: 32, Height: 32, NumFrames: 3, Seed: 9, MabSize: 16, Quant: 8}},
	}
	got := make([]*trace.Trace, 2*len(builds))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := builds[i%len(builds)]
			got[i], errs[i] = BuildTrace(b.key, b.sc)
		}(i)
	}
	wg.Wait()
	for i, tr := range got {
		b := builds[i%len(builds)]
		if errs[i] != nil {
			t.Fatalf("%s mab %d: %v", b.key, b.sc.MabSize, errs[i])
		}
		want, err := BuildTrace(b.key, b.sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("%s mab %d: concurrent build differs from a serial one", b.key, b.sc.MabSize)
		}
	}
}

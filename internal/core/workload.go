package core

import (
	"mach/internal/codec"
	"mach/internal/trace"
	"mach/internal/video"
)

// BuildTrace synthesizes one Table 1 workload into a replay trace in one
// streaming pass: the scene generator feeds the block encoder, and each
// frame the encoder emits joins the trace as its reconstruction and decode
// work, with the bitstream kept only as its size. The encoder's loop is
// closed, so this is the trace codec.Decoder would produce from the
// bitstream (trace.Build does, and the tests hold the two equal). Every
// scheme then replays the identical trace.
func BuildTrace(profileKey string, sc video.StreamConfig) (*trace.Trace, error) {
	prof, err := video.ProfileByKey(profileKey)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Profile: prof.Key, FPS: prof.FPS}
	tr.Params, err = video.EncodeStream(prof, sc, func(o codec.Output) {
		tr.Frames = append(tr.Frames, trace.Frame{
			Type:         o.Encoded.Type,
			DisplayIndex: o.Encoded.DisplayIndex,
			EncodedBytes: o.Encoded.SizeBytes(),
			Decoded:      o.Recon,
			Work:         o.Work,
		})
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// WorkloadKeys returns the 16 Table 1 keys in order.
func WorkloadKeys() []string {
	ps := video.Profiles()
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	return keys
}

package shard

import (
	"errors"
	"testing"

	"statdb/internal/storage"
)

// FuzzDecodeShardManifest drives DecodeManifest with arbitrary bytes:
// the decoder must never panic, must wrap every rejection in
// storage.ErrCorrupt, and must round-trip anything it accepts.
func FuzzDecodeShardManifest(f *testing.F) {
	valid := EncodeManifest(&Manifest{
		View: "census", Rows: 2048, Chunk: 512,
		Shards: []ManifestShard{
			{Rows: 1024, Gen: 3, Chunks: []int{0, 2}},
			{Rows: 1024, Gen: 2, Chunks: []int{1, 3}},
		},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("SDSM garbage"))
	mut := append([]byte(nil), valid...)
	mut[7] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap storage.ErrCorrupt", err)
			}
			return
		}
		// Accepted input: re-encoding the decoded manifest must itself
		// decode (the codec is internally consistent).
		if _, err := DecodeManifest(EncodeManifest(m)); err != nil {
			t.Fatalf("re-encode of accepted manifest rejected: %v", err)
		}
	})
}

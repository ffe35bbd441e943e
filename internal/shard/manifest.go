package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"statdb/internal/storage"
)

// The shard manifest is the authoritative record of a view's placement:
// which chunks live on which shard, under what policy, and each shard's
// last checkpoint generation. It is persisted as an entry in the
// manifest store's summary.DB and committed through PR 2's ping-pong
// shadow-generation protocol, so a torn manifest write leaves the
// previous generation readable.
//
// The wire format is length-prefixed and CRC32C-sealed. Nothing reads
// it back yet; the tests' DecodeManifest is its reference reader.

// fnManifest and fnMoments/fnFreq are the partials DB function names.
const (
	fnManifest = "shard.manifest"
	fnMoments  = "shard.moments"
	fnFreq     = "shard.freq"
)

const (
	manifestMagic   = 0x5344534d // "SDSM"
	manifestVersion = 1
)

var manifestTable = crc32.MakeTable(crc32.Castagnoli)

// Manifest describes one sharded view's placement.
type Manifest struct {
	View   string
	Rows   int
	Chunk  int
	Policy Policy
	Shards []ManifestShard
}

// ManifestShard is one shard's placement record.
type ManifestShard struct {
	Rows   int
	Gen    uint64 // shadow generation of the shard's checkpointed partials
	Chunks []int  // global chunk indices owned, ascending
}

// EncodeManifest serializes m with a trailing CRC32C.
func EncodeManifest(m *Manifest) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, manifestMagic)
	out = append(out, manifestVersion)
	out = binary.AppendUvarint(out, uint64(len(m.View)))
	out = append(out, m.View...)
	out = binary.AppendUvarint(out, uint64(m.Rows))
	out = binary.AppendUvarint(out, uint64(m.Chunk))
	out = append(out, byte(m.Policy))
	out = binary.AppendUvarint(out, uint64(len(m.Shards)))
	for _, sh := range m.Shards {
		out = binary.AppendUvarint(out, uint64(sh.Rows))
		out = binary.AppendUvarint(out, sh.Gen)
		out = binary.AppendUvarint(out, uint64(len(sh.Chunks)))
		prev := 0
		for _, c := range sh.Chunks {
			// Ascending indices delta-encode compactly.
			out = binary.AppendUvarint(out, uint64(c-prev))
			prev = c
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, manifestTable))
}

// corruptf wraps storage.ErrCorrupt with a description.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("shard: manifest: "+format+": %w", append(args, storage.ErrCorrupt)...)
}

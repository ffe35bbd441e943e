package tape

import (
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/storage"
)

// FuzzTapeDecodeBlock mutates valid block encodings through the block
// decoder Read runs: for any input it must hand fn only rows of the
// record width and return or fail, never panic — a damaged tape
// surfaces as a CorruptError in Read, not a crash.
func FuzzTapeDecodeBlock(f *testing.F) {
	var blk []byte
	for i := 0; i < 4; i++ {
		blk = storage.EncodeRow(blk, dataset.Row{
			dataset.Int(int64(i)), dataset.Float(float64(i) / 2), dataset.String("r"),
		})
	}
	f.Add(blk, 3, 4)
	f.Add(blk[:len(blk)-3], 3, 4)
	f.Add([]byte{}, 1, 0)
	f.Fuzz(func(t *testing.T, data []byte, width, n int) {
		if width < 0 || width > 64 || n < 0 || n > BlockRows {
			return
		}
		seen := 0
		_, _ = decodeBlock(data, make(dataset.Row, 0, width), n, func(row dataset.Row) bool {
			if len(row) != width {
				t.Fatalf("row %d has %d values, want %d", seen, len(row), width)
			}
			seen++
			return true
		})
		if seen > n {
			t.Fatalf("%d rows handed on from a block of %d", seen, n)
		}
	})
}

package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"statdb/internal/dataset"
)

func sampleRow() dataset.Row {
	return dataset.Row{dataset.Int(42), dataset.Float(3.25), dataset.String("ok")}
}

// Property: DecodeRow never panics on arbitrary bytes — it returns an
// error for anything that is not a valid record. Storage must tolerate
// corrupt pages.
func TestDecodeRowNeverPanicsProperty(t *testing.T) {
	f := func(data []byte, n uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %d bytes, n=%d: %v", len(data), n, r)
				ok = false
			}
		}()
		_, _ = DecodeRow(data, int(n%8)+1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeRow drives the row codec with mutated encodings: whatever
// the bytes, DecodeRow must return (row, nil) or (nil, error) — never
// panic. Seeds are valid encodings so the fuzzer starts inside the
// format and mutates outward.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(EncodeRow(nil, sampleRow()), 3)
	f.Add(EncodeRow(nil, sampleRow())[:5], 3)
	f.Fuzz(func(t *testing.T, data []byte, width int) {
		if width < 0 || width > 64 {
			return
		}
		_, _ = DecodeRow(data, width)
	})
}

// Property: slotted-page inserts and reads against a reference map
// never disagree and never panic, across random record sizes up to a
// full page.
func TestPageOperationsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		p := NewPage(make([]byte, PageSize))
		p.Init()
		model := map[int][]byte{} // slot -> record
		for op := 0; op < 400; op++ {
			rec := make([]byte, rng.Intn(200)+1)
			rng.Read(rec)
			slot, err := p.Insert(rec)
			if err == ErrPageFull {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[slot]; dup {
				t.Fatalf("slot %d reused", slot)
			}
			model[slot] = append([]byte(nil), rec...)
			// Verify every record.
			for slot, want := range model {
				got, err := p.Get(slot)
				if err != nil {
					t.Fatalf("trial %d op %d: Get(%d): %v", trial, op, slot, err)
				}
				if string(got) != string(want) {
					t.Fatalf("trial %d op %d: slot %d corrupted", trial, op, slot)
				}
			}
		}
		if p.NumSlots() != len(model) {
			t.Fatalf("trial %d: page holds %d slots, model %d", trial, p.NumSlots(), len(model))
		}
	}
}

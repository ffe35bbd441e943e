package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	if _, ok := tr.Get([]byte("x")); ok {
		t.Error("Get on empty tree succeeded")
	}
	if err := tr.Insert([]byte("median/AVE_SALARY"), 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get([]byte("median/AVE_SALARY")); !ok || v != 42 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	if err := tr.Insert([]byte("median/AVE_SALARY"), 43); err == nil {
		t.Error("duplicate insert accepted")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), 1)
	tr.Put([]byte("k"), 2)
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Errorf("Get = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

// Height returns the tree height (1 for a lone leaf).
func (t *BTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func TestManyKeysSplitsAndOrder(t *testing.T) {
	tr := New()
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert([]byte(fmt.Sprintf("key-%06d", i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d; expected splits", tr.Height())
	}
	for i := 0; i < n; i += 97 {
		if v, ok := tr.Get([]byte(fmt.Sprintf("key-%06d", i))); !ok || v != int64(i) {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	// Full scan must be ordered and complete.
	var prev []byte
	count := 0
	tr.Scan(nil, nil, func(k []byte, v int64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Errorf("scan visited %d, want %d", count, n)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("%04d", i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if !tr.Delete([]byte(fmt.Sprintf("%04d", i))) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Delete([]byte("0000")) {
		t.Error("double delete succeeded")
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := 0; i < 200; i++ {
		_, ok := tr.Get([]byte(fmt.Sprintf("%04d", i)))
		if want := i%2 == 1; ok != want {
			t.Errorf("Get(%d) present=%v want %v", i, ok, want)
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		if err := tr.Insert([]byte(k), int64(k[0])); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	tr.Scan([]byte("b"), []byte("e"), func(k []byte, _ int64) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scan[%d] = %q", i, got[i])
		}
	}
	// Early stop.
	got = got[:0]
	tr.Scan(nil, nil, func(k []byte, _ int64) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Errorf("early stop visited %v", got)
	}
}

func TestScanPrefix(t *testing.T) {
	tr := New()
	// Summary-DB-style composite keys clustered by attribute.
	entries := map[string]int64{
		string(Key("AVE_SALARY", "median")): 1,
		string(Key("AVE_SALARY", "min")):    2,
		string(Key("POPULATION", "max")):    3,
		string(Key("POPULATION", "min")):    4,
	}
	for k, v := range entries {
		if err := tr.Insert([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	tr.ScanPrefix(Key("AVE_SALARY"), func(_ []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("prefix scan found %v", got)
	}
	// POPULATION entries not included even though they sort after.
	for _, v := range got {
		if v == 3 || v == 4 {
			t.Errorf("prefix scan leaked %d", v)
		}
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	// "A"+"B" and "AB" must not collide.
	if bytes.Equal(Key("A", "B"), Key("AB")) {
		t.Error("composite key collision")
	}
	// Keys with embedded NULs stay distinct and ordered.
	a := Key("x\x00y", "z")
	b := Key("x", "y\x00z")
	if bytes.Equal(a, b) {
		t.Error("escaped NUL collision")
	}
}

func TestRandomOperationsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New()
	ref := map[string]int64{}
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("%03d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			v := int64(rng.Intn(1000))
			tr.Put([]byte(k), v)
			ref[k] = v
		case 1:
			got := tr.Delete([]byte(k))
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%q) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			v, ok := tr.Get([]byte(k))
			wv, wok := ref[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("op %d: Get(%q) = %d,%v want %d,%v", op, k, v, ok, wv, wok)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, map has %d", tr.Len(), len(ref))
	}
}

// Property: scanning the whole tree yields keys in sorted order matching
// exactly the inserted set.
func TestScanMatchesSortedInsertProperty(t *testing.T) {
	f := func(keys []string) bool {
		tr := New()
		uniq := map[string]bool{}
		for _, k := range keys {
			if !uniq[k] {
				uniq[k] = true
				if err := tr.Insert([]byte(k), 0); err != nil {
					return false
				}
			}
		}
		var want []string
		for k := range uniq {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Scan(nil, nil, func(k []byte, _ int64) bool {
			got = append(got, string(k))
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Delete removes key, reporting whether it was present. Underflowed nodes
// are left lazy (no rebalancing): statistical-database indexes are
// read-mostly, and lookups and scans remain correct; only worst-case
// height guarantees weaken.
func (t *BTree) Delete(key []byte) bool {
	n := t.root
	for !n.leaf {
		i := n.find(key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		n = n.children[i]
	}
	i := n.find(key)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

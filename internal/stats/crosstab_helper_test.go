package stats

import (
	"testing"

	"statdb/internal/dataset"
)

func twoColDataset(t *testing.T, rows [][2]string) *dataset.Dataset {
	t.Helper()
	sch := dataset.MustSchema(
		dataset.Attribute{Name: "RACE", Kind: dataset.KindString, Category: true},
		dataset.Attribute{Name: "AGE", Kind: dataset.KindString, Category: true},
	)
	ds := dataset.New(sch)
	for _, r := range rows {
		if err := ds.Append(dataset.Row{dataset.String(r[0]), dataset.String(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestCrossTabSkipsNulls(t *testing.T) {
	ds := twoColDataset(t, [][2]string{{"W", "young"}, {"B", "old"}})
	if err := ds.SetCell(0, 1, dataset.Null); err != nil {
		t.Fatal(err)
	}
	ct, err := NewCrossTab(ds, "RACE", "AGE")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Total() != 1 {
		t.Errorf("total = %d, want 1 (null row skipped)", ct.Total())
	}
}

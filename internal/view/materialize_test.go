package view

import (
	"fmt"
	"testing"

	"statdb/internal/dataset"
	"statdb/internal/relalg"
	"statdb/internal/rules"
	"statdb/internal/tape"
)

// BenchmarkMaterialize takes a 200 000-row, 27-column raw file from tape
// through `where ID < 150000 project` 15 columns `sort ID`, the shape of
// the benchmark's views: ID, SEX, REGION and 24 measures cycling float,
// code and run columns, written in descending ID order so the sort has
// work to do.
func BenchmarkMaterialize(b *testing.B) {
	const rows, measures = 200000, 24
	attrs := []dataset.Attribute{
		{Name: "ID", Kind: dataset.KindInt, Category: true},
		{Name: "SEX", Kind: dataset.KindString, Category: true},
		{Name: "REGION", Kind: dataset.KindInt, Category: true},
	}
	for j := 0; j < measures; j++ {
		kind := dataset.KindInt
		if j%3 == 0 {
			kind = dataset.KindFloat
		}
		attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("%c%d", "FCR"[j%3], j/3), Kind: kind, Summarizable: true})
	}
	raw := dataset.New(dataset.MustSchema(attrs...))
	raw.Grow(rows)
	row := make(dataset.Row, len(attrs))
	for i := rows - 1; i >= 0; i-- {
		h := uint64(i)*0x9e3779b97f4a7c15 + 1
		row[0], row[1], row[2] = dataset.Int(int64(i)), dataset.String([]string{"M", "F"}[h>>63]), dataset.Int(int64(1+h%9))
		for j := 0; j < measures; j++ {
			h = h*6364136223846793005 + 1442695040888963407
			switch {
			case h%100 == 0 && j%3 != 2:
				row[3+j] = dataset.Null
			case j%3 == 0:
				row[3+j] = dataset.Float(float64(h>>40) / 1000)
			case j%3 == 1:
				row[3+j] = dataset.Int(int64(h>>33) % 100)
			default:
				row[3+j] = dataset.Int(int64(i * 50 / rows))
			}
		}
		if err := raw.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	archive := tape.NewArchive(tape.DefaultCost())
	if err := archive.Write("survey", raw); err != nil {
		b.Fatal(err)
	}
	project := []string{"ID", "SEX", "REGION"}
	for j := 0; j < 12; j++ {
		project = append(project, attrs[3+j].Name)
	}
	mdb := rules.NewManagementDB()
	def := rules.ViewDef{Name: "v", Analyst: "a", Source: "survey"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := NewBuilder(archive, mdb, "survey").
			Select(relalg.Cmp{Attr: "ID", Op: relalg.Lt, Val: dataset.Int(150000)}).
			Project(project...).
			Sort(relalg.SortKey{Attr: "ID"}).
			materialize(def)
		if err != nil {
			b.Fatal(err)
		}
		if ds.Rows() != 150000 || ds.Schema().Len() != 15 {
			b.Fatalf("materialized %d rows × %d columns", ds.Rows(), ds.Schema().Len())
		}
	}
}

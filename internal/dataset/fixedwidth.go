package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Fixed-width interchange: the census public-use samples the paper
// assumes were distributed as fixed-column card-image records whose
// layout lived in the code book. FixedWidthLayout is that layout made
// machine-readable.

// FixedWidthField binds a schema attribute to a column range.
type FixedWidthField struct {
	// Attr is the schema attribute the field fills.
	Attr string
	// Start is the 1-based first column (code books count from 1).
	Start int
	// Width is the field width in characters.
	Width int
}

// FixedWidthLayout is an ordered field list over a schema.
type FixedWidthLayout []FixedWidthField

// validate checks the layout against sch.
func (l FixedWidthLayout) validate(sch *Schema) error {
	if len(l) == 0 {
		return fmt.Errorf("dataset: empty fixed-width layout")
	}
	seen := map[string]bool{}
	for i, f := range l {
		if sch.Index(f.Attr) < 0 {
			return fmt.Errorf("dataset: layout field %d names unknown attribute %q", i, f.Attr)
		}
		if seen[f.Attr] {
			return fmt.Errorf("dataset: layout names attribute %q twice", f.Attr)
		}
		seen[f.Attr] = true
		if f.Start < 1 || f.Width < 1 {
			return fmt.Errorf("dataset: layout field %q has start=%d width=%d", f.Attr, f.Start, f.Width)
		}
	}
	for i := 0; i < sch.Len(); i++ {
		if !seen[sch.At(i).Name] {
			return fmt.Errorf("dataset: layout missing attribute %q", sch.At(i).Name)
		}
	}
	return nil
}

// ReadFixedWidth parses card-image records (one per line) against the
// layout. Fields are trimmed; blank fields are missing values. Short
// lines are an error: a truncated card is a damaged record.
//
//lint:allow test-only paper-named: card-image fixed-width input, the raw format of 1980s statistical files
func ReadFixedWidth(r io.Reader, sch *Schema, layout FixedWidthLayout) (*Dataset, error) {
	if err := layout.validate(sch); err != nil {
		return nil, err
	}
	ds := New(sch)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		row := make(Row, sch.Len())
		for _, f := range layout {
			end := f.Start - 1 + f.Width
			if len(line) < end {
				return nil, fmt.Errorf("dataset: line %d is %d chars, field %q needs %d", lineNo, len(line), f.Attr, end)
			}
			cell := strings.TrimSpace(line[f.Start-1 : end])
			si := sch.Index(f.Attr)
			v, err := parseCell(cell, sch.At(si).Kind)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, attribute %q: %w", lineNo, f.Attr, err)
			}
			row[si] = v
		}
		if err := ds.Append(row); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteFixedWidth renders ds as card-image records under the layout.
// Values that do not fit their field are an error (code books fix
// widths; silent truncation corrupts data). Numbers are right-aligned,
// strings left-aligned, missing values blank.
//
//lint:allow test-only paper-named: card-image fixed-width output, the twin of ReadFixedWidth
func (d *Dataset) WriteFixedWidth(w io.Writer, layout FixedWidthLayout) error {
	if err := layout.validate(d.schema); err != nil {
		return err
	}
	// Compute the record length.
	recLen := 0
	for _, f := range layout {
		if end := f.Start - 1 + f.Width; end > recLen {
			recLen = end
		}
	}
	bw := bufio.NewWriter(w)
	line := make([]byte, recLen)
	for r := 0; r < d.Rows(); r++ {
		for i := range line {
			line[i] = ' '
		}
		for _, f := range layout {
			si := d.schema.Index(f.Attr)
			v := d.Cell(r, si)
			var cell string
			if !v.IsNull() {
				cell = v.String()
			}
			if len(cell) > f.Width {
				return fmt.Errorf("dataset: row %d attribute %q value %q exceeds width %d", r, f.Attr, cell, f.Width)
			}
			pos := f.Start - 1
			if d.schema.At(si).Kind == KindString {
				copy(line[pos:], cell) // left-aligned
			} else {
				copy(line[pos+f.Width-len(cell):], cell) // right-aligned
			}
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

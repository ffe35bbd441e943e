package query

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"os"

	"statdb/internal/catalog"
	"statdb/internal/dataset"
	"statdb/internal/stats"
	"statdb/internal/summary"
)

func (e *Executor) execRollback(cmd Command) error {
	c := cmd.(RollbackCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	before := v.History().Len()
	if err := v.RollbackTo(c.Seq); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "rolled back %d update(s)\n", before-v.History().Len())
	return nil
}

func (e *Executor) execDescribe(cmd Command) error {
	c := cmd.(DescribeCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	sum, err := v.Describe(c.Attr)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out,
		"%s: n=%d missing=%d mean=%.6g sd=%.6g min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g mode=%.6g unique=%d\n",
		c.Attr, sum.N, sum.Missing, sum.Mean, sum.SD, sum.Min, sum.Q1, sum.Median, sum.Q3, sum.Max, sum.Mode, sum.Unique)
	return nil
}

func (e *Executor) execFrequencies(cmd Command) error {
	c := cmd.(FrequenciesCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	values, counts, err := v.StringFrequencies(c.Attr)
	if err != nil {
		return err
	}
	for i, val := range values {
		fmt.Fprintf(e.Out, "%-20s %d\n", val, counts[i])
	}
	return nil
}

func (e *Executor) execSave(cmd Command) error {
	c := cmd.(SaveCmd)
	if err := catalog.Save(e.DBMS, c.Path); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "database saved to %s\n", c.Path)
	return nil
}

func (e *Executor) execAdvice(cmd Command) error {
	v, err := e.Analyst.View(cmd.(AdviceCmd).View)
	if err != nil {
		return err
	}
	adv := v.Advice()
	layout := "row file"
	if adv.Transpose {
		layout = "transposed"
	}
	fmt.Fprintf(e.Out, "column scans=%d row reads=%d -> recommended layout: %s (hot: %s)\n",
		adv.ColumnScans, adv.RowReads, layout, strings.Join(adv.HotAttrs, ","))
	return nil
}

func (e *Executor) execHistogram(cmd Command) error {
	c := cmd.(HistogramCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	fn := fmt.Sprintf("histogram%d", c.Bins)
	res, err := v.Result(fn, []string{c.Attr}, func(xs [][]float64, valid [][]bool) (summary.Result, error) {
		h, err := stats.NewHistogram(xs[0], valid[0], c.Bins)
		return summary.HistogramOf(h), err
	})
	if err != nil {
		return err
	}
	h := res.Hist
	maxCount := 1
	for _, n := range h.Counts {
		if n > maxCount {
			maxCount = n
		}
	}
	for i, n := range h.Counts {
		bar := strings.Repeat("#", n*40/maxCount)
		fmt.Fprintf(e.Out, "[%12.4g, %12.4g) %6d %s\n", h.Edges[i], h.Edges[i+1], n, bar)
	}
	return nil
}

func (e *Executor) execCrosstab(cmd Command) error {
	c := cmd.(CrosstabCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	ct, err := stats.NewCrossTab(v.Dataset(), c.RowAttr, c.ColAttr)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(e.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\\%s", c.RowAttr, c.ColAttr)
	for _, cl := range ct.ColLabels {
		fmt.Fprintf(w, "\t%s", cl)
	}
	fmt.Fprintln(w, "\ttotal")
	rowTotals := ct.RowTotals()
	for i, rl := range ct.RowLabels {
		fmt.Fprint(w, rl)
		for j := range ct.ColLabels {
			fmt.Fprintf(w, "\t%d", ct.Counts[i][j])
		}
		fmt.Fprintf(w, "\t%d\n", rowTotals[i])
	}
	fmt.Fprint(w, "total")
	for _, n := range ct.ColTotals() {
		fmt.Fprintf(w, "\t%d", n)
	}
	fmt.Fprintf(w, "\t%d\n", ct.Total())
	if err := w.Flush(); err != nil {
		return err
	}
	chi, err := ct.ChiSquare()
	if err != nil {
		fmt.Fprintf(e.Out, "chi-square: %v\n", err)
		return nil
	}
	verdict := "independent at 5%"
	if chi.PValue < 0.05 {
		verdict = "DEPENDENT at 5%"
	}
	fmt.Fprintf(e.Out, "chi-square stat=%.3f df=%d p=%.4f -> %s\n", chi.Statistic, chi.DF, chi.PValue, verdict)
	return nil
}

func (e *Executor) execCorrelate(cmd Command) error {
	c := cmd.(CorrelateCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	fn := "correlation"
	if c.Rank {
		fn = "spearman"
	}
	res, err := v.Result(fn, []string{c.X, c.Y}, func(xs [][]float64, valid [][]bool) (summary.Result, error) {
		corr := stats.Correlation
		if c.Rank {
			corr = stats.SpearmanCorrelation
		}
		r, err := corr(xs[0], xs[1], valid[0], valid[1])
		return summary.ScalarOf(r), err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "%s(%s, %s) = %.4f\n", fn, c.X, c.Y, res.Scalar)
	return nil
}

func (e *Executor) execRegress(cmd Command) error {
	c := cmd.(RegressCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	// Keyed (Y, X1…Xk), held as [coef0 … coefk, R2, n].
	res, err := v.Result("regress", append([]string{c.Y}, c.Xs...), func(xs [][]float64, valid [][]bool) (summary.Result, error) {
		reg, err := stats.FitMultiple(xs[0], valid[0], xs[1:], valid[1:])
		if err != nil {
			return summary.Result{}, err
		}
		return summary.VectorOf(append(reg.Coef, reg.R2, float64(reg.N))), nil
	})
	if err != nil {
		return err
	}
	k := len(c.Xs)
	coef, r2, n := res.Vector[:k+1], res.Vector[k+1], int(res.Vector[k+2])
	var b strings.Builder
	fmt.Fprintf(&b, "%s = %.4g", c.Y, coef[0])
	for i, x := range c.Xs {
		fmt.Fprintf(&b, " + %.4g*%s", coef[i+1], x)
	}
	fmt.Fprintf(e.Out, "%s   (R2=%.4f, n=%d)\n", b.String(), r2, n)
	return nil
}

func (e *Executor) execImport(cmd Command) error {
	c := cmd.(ImportCmd)
	f, err := os.Open(c.Path)
	if err != nil {
		return err
	}
	sch, err := dataset.InferSchemaFromCSV(f)
	cerr := f.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	f, err = os.Open(c.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := dataset.ReadCSV(f, sch)
	if err != nil {
		return err
	}
	ds.SetName(c.As)
	if err := e.DBMS.LoadRaw(c.As, ds); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "imported %s: %d rows, %d attributes -> raw file %s\n",
		c.Path, ds.Rows(), ds.Schema().Len(), c.As)
	return nil
}

func (e *Executor) execExport(cmd Command) error {
	c := cmd.(ExportCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	f, err := os.Create(c.Path)
	if err != nil {
		return err
	}
	if err := v.Dataset().WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "exported %d rows to %s\n", v.Rows(), c.Path)
	return nil
}

func (e *Executor) execTTest(cmd Command) error {
	c := cmd.(TTestCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	ds := v.Dataset()
	gi := ds.Schema().Index(c.Group)
	if gi < 0 {
		return fmt.Errorf("query: no attribute %q", c.Group)
	}
	xs, valid, err := v.Column(c.Attr)
	if err != nil {
		return err
	}
	groups := map[string][]float64{}
	var order []string
	for r := 0; r < ds.Rows(); r++ {
		g := ds.Cell(r, gi)
		if g.IsNull() || (valid != nil && !valid[r]) {
			continue
		}
		k := g.String()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], xs[r])
	}
	if len(groups) != 2 {
		return fmt.Errorf("query: ttest needs exactly 2 groups of %s, found %d", c.Group, len(groups))
	}
	a, b := groups[order[0]], groups[order[1]]
	res, err := stats.WelchTTest(a, nil, b, nil)
	if err != nil {
		return err
	}
	verdict := "no significant difference at 5%"
	if res.PValue < 0.05 {
		verdict = "SIGNIFICANT difference at 5%"
	}
	fmt.Fprintf(e.Out, "%s by %s: %s(n=%d) vs %s(n=%d)  diff=%.4g t=%.3f df=%.1f p=%.4f -> %s\n",
		c.Attr, c.Group, order[0], len(a), order[1], len(b), res.MeanDiff, res.Statistic, res.DF, res.PValue, verdict)
	return nil
}

func (e *Executor) execSample(cmd Command) error {
	c := cmd.(SampleCmd)
	v, err := e.Analyst.View(c.View)
	if err != nil {
		return err
	}
	sample, err := stats.SampleDataset(v.Dataset(), c.K, c.Seed)
	if err != nil {
		return err
	}
	def, _ := e.DBMS.Management().View(c.View)
	ops := append(append([]string{}, def.Ops...),
		fmt.Sprintf("sample %d seed %d", c.K, c.Seed))
	nv, err := e.Analyst.AdoptDataset(c.As, sample, def.Source, ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "view %s sampled: %d rows\n", c.As, nv.Rows())
	return nil
}

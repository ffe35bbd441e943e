package query

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"statdb/internal/core"
	"statdb/internal/obs"
	"statdb/internal/summary"
)

// Executor runs parsed commands against a DBMS on behalf of one analyst,
// writing human-readable results to Out.
type Executor struct {
	DBMS    *core.DBMS
	Analyst *core.Analyst
	Out     io.Writer
	// Cached observability handles (query.* counters, system tracer,
	// continuous-profile ring and its counters; reg registers the
	// per-verb SLO families lazily as verbs run).
	cStatements *obs.Counter
	cErrors     *obs.Counter
	cProfiled   *obs.Counter
	cSlow       *obs.Counter
	reg         *obs.Registry
	profiles    *obs.ProfileRing
	tracer      *obs.Tracer
	// events, when set, receives one structured record per profiled
	// statement; clock is the executor's virtual time — cumulative root
	// span ticks — stamped on each record.
	events *obs.EventLog
	clock  int64
	// session names the simulated analyst session this executor serves
	// (empty outside the load driver / serve session map); sessionSeq
	// numbers its statements 1-based; sessionBudget is the session-wide
	// quota the admission gate checks and charges queue ticks against.
	session       string
	sessionSeq    int64
	sessionBudget *obs.Budget
	// lastProfile/lastPages capture the most recent statement's folded
	// profile and page charge for RunMeasured callers.
	lastProfile *obs.Profile
	lastPages   int64
}

// NewExecutor creates an executor for the named analyst.
func NewExecutor(d *core.DBMS, analyst string, out io.Writer) *Executor {
	reg := d.MetricsRegistry()
	return &Executor{
		DBMS:        d,
		Analyst:     d.Analyst(analyst),
		Out:         out,
		cStatements: reg.Counter(obs.MQueryStatements),
		cErrors:     reg.Counter(obs.MQueryErrors),
		cProfiled:   reg.Counter(obs.MProfileQueries),
		cSlow:       reg.Counter(obs.MProfileSlow),
		reg:         reg,
		profiles:    d.Profiles(),
		tracer:      d.Tracer(),
	}
}

// SetEventLog attaches the structured log receiving per-query records;
// nil detaches it. The executor model is single-threaded, so this is
// set before the query loop starts.
func (e *Executor) SetEventLog(l *obs.EventLog) { e.events = l }

// SetSession attributes this executor's statements to a simulated
// session: event-log records carry the id and a 1-based per-session
// sequence number. Setting a session resets the sequence.
func (e *Executor) SetSession(id string) {
	e.session = id
	e.sessionSeq = 0
}

// SetSessionBudget attaches the session-wide quota the admission gate
// enforces: a spent budget sheds the session's statements at the door,
// and ticks spent queued are charged against it. Nil detaches it.
func (e *Executor) SetSessionBudget(b *obs.Budget) { e.sessionBudget = b }

// Measured summarizes one statement for callers that need exact
// per-statement attribution (the load driver's conservation checks):
// the verb it dispatched as, the cost-model ticks its folded profile
// charged, and the buffer-pool pages its budget recorded.
type Measured struct {
	Verb  string
	Ticks int64
	Pages int64
}

// RunMeasured parses and executes one statement and reports what it
// cost. A shed or failed statement reports the error alongside whatever
// was measured before the abort (zero ticks when admission refused it).
func (e *Executor) RunMeasured(input string) (Measured, error) {
	input = strings.TrimSpace(input)
	if input == "" {
		return Measured{}, nil
	}
	cmd, err := Parse(input)
	if err != nil {
		e.cErrors.Inc()
		return Measured{}, err
	}
	e.cStatements.Inc()
	e.lastProfile = nil
	e.lastPages = 0
	err = e.dispatch(cmd, input)
	if err != nil {
		e.cErrors.Inc()
	}
	m := Measured{Verb: verbOf(cmd), Pages: e.lastPages}
	if e.lastProfile != nil {
		m.Ticks = e.lastProfile.Ticks
	}
	return m, err
}

// Run parses and executes one statement, counting it (and any failure)
// in the query.* metric family.
func (e *Executor) Run(input string) error {
	_, err := e.RunMeasured(input)
	return err
}

var helpText = `commands:
  files                                       list raw archive files
  views                                       list views
  materialize V from FILE [where P] [project A,B] [decode A] [sort A [desc]]
  compute FN ATTR on V                        fn: ` + strings.Join(summary.Functions(), " ") + `
  summary V                                   dump V's summary database (Figure 4)
  describe A on V                             standing summary info (Section 3.2)
  frequencies A on V                          value counts for a string attribute
  update V set ATTR = VALUE where P           VALUE may be null
  undo V                                      undo V's most recent update
  history V                                   show V's update history
  publish V                                   share V with other analysts
  show V [limit N]                            print rows
  histogram A on V [bins N]                   binned frequencies with bars
  crosstab A B on V                           contingency table + chi-square
  correlate A B on V [rank]                   Pearson (or Spearman) correlation
  ttest A by G on V                           Welch two-sample t-test between G's two groups
  regress Y on X1,X2 over V                   OLS fit
  sample N from V as NEW [seed S]             random-sample view
  rollback V to SEQ                           undo updates after history #SEQ
  advice V                                    storage-layout recommendation
  import 'file.csv' as NAME                   CSV -> raw archive (schema inferred)
  export V to 'file.csv'                      view -> CSV
  shards V                                    per-shard health for V's sharded backing
  stats                                       dump system metrics (counters, gauges, histograms)
  explain CMD                                 run CMD and print its cost-charged span tree
  profile CMD                                 run CMD and print its folded profile (top sites by self ticks)
  help
`

// Exec executes a parsed command. Every command other than stats/explain
// runs under a "query" root span, so its profile lands in the tracer's
// ring; `explain` renders that tree instead of discarding it.
func (e *Executor) Exec(cmd Command) error {
	return e.dispatch(cmd, "")
}

// dispatch routes one parsed command; text is the statement as typed
// (empty when the caller went through Exec directly), carried into the
// event-log record.
func (e *Executor) dispatch(cmd Command, text string) error {
	switch c := cmd.(type) {
	case StatsCmd:
		return e.DBMS.Metrics().WriteText(e.Out)
	case ExplainCmd:
		root, err := e.runProfiled(c.Inner, text)
		if err != nil {
			return err
		}
		return obs.WriteTree(e.Out, root)
	case ProfileCmd:
		root, err := e.runProfiled(c.Inner, text)
		if err != nil {
			return err
		}
		return obs.FoldSpan(root).WriteTop(e.Out, 0)
	}
	_, err := e.runProfiled(cmd, text)
	return err
}

// runProfiled executes cmd under a "query" root span with a fresh
// budget installed on the tracer (ceilings from core.DBMS.QueryBudget;
// a zero-limit budget still accounts pages for the event record). A
// breached budget aborts the statement with the typed *obs.BudgetError
// — either surfaced by a budget-aware layer mid-flight or latched here
// after commands that bypass those layers — and the statement lands in
// the event log either way.
func (e *Executor) runProfiled(cmd Command, text string) (*obs.Span, error) {
	// Admission first: the DBMS gate bounds how many statements hold the
	// engine at once and sheds when its queue overflows or this
	// session's quota is spent. Everything below — budget, span tree,
	// profiling — happens inside the admitted critical section, so the
	// shared tracer sees one statement at a time.
	release, err := e.DBMS.Gate().Acquire(e.sessionBudget)
	if err != nil {
		return nil, err
	}
	defer release()
	maxTicks, maxPages := e.DBMS.QueryBudget()
	budget := obs.NewBudget(maxTicks, maxPages)
	e.tracer.SetBudget(budget)
	root := e.tracer.Begin("query")
	err = e.exec(cmd)
	root.End()
	e.tracer.SetBudget(nil)
	if err == nil {
		err = budget.Err()
	}
	prof := e.observeVerb(cmd, root, err)
	e.lastProfile = prof
	_, e.lastPages = budget.Used()
	e.logQuery(text, cmd, root, prof, e.lastPages, err)
	return root, err
}

// observeVerb folds the finished statement's span tree into the
// continuous-profile ring under its verb and feeds the per-verb SLO
// families: the query.ticks.<verb> histogram (total cost-model ticks),
// and error/budget-breach counters. These labeled instruments register
// lazily, so only verbs that actually ran appear in exports.
func (e *Executor) observeVerb(cmd Command, root *obs.Span, err error) *obs.Profile {
	prof := obs.FoldSpan(root)
	verb := verbOf(cmd)
	e.profiles.Add(verb, prof)
	e.cProfiled.Inc()
	e.reg.Histogram(obs.LabeledName(obs.MQueryTicks, verb), obs.QueryTicksBounds()).Observe(prof.Ticks)
	if err != nil {
		e.reg.Counter(obs.LabeledName(obs.MQueryVerbErrors, verb)).Inc()
		var be *obs.BudgetError
		if errors.As(err, &be) {
			e.reg.Counter(obs.LabeledName(obs.MQueryBreaches, verb)).Inc()
		}
	}
	return prof
}

// verbOf names the statement's verb for per-verb profiles and SLOs —
// the keyword that would have invoked it (explain/profile report as
// their wrapped verb, since dispatch unwraps before profiling).
func verbOf(cmd Command) string {
	switch cmd.(type) {
	case Files:
		return "files"
	case Views:
		return "views"
	case Help:
		return "help"
	case Materialize:
		return "materialize"
	case Compute:
		return "compute"
	case SummaryDump:
		return "summary"
	case Update:
		return "update"
	case Undo:
		return "undo"
	case HistoryCmd:
		return "history"
	case Publish:
		return "publish"
	case Show:
		return "show"
	case ShardsCmd:
		return "shards"
	case HistogramCmd:
		return "histogram"
	case CrosstabCmd:
		return "crosstab"
	case CorrelateCmd:
		return "correlate"
	case RegressCmd:
		return "regress"
	case SampleCmd:
		return "sample"
	case RollbackCmd:
		return "rollback"
	case ImportCmd:
		return "import"
	case ExportCmd:
		return "export"
	case DescribeCmd:
		return "describe"
	case FrequenciesCmd:
		return "frequencies"
	case TTestCmd:
		return "ttest"
	case SaveCmd:
		return "save"
	case AdviceCmd:
		return "advice"
	}
	return "other"
}

// logQuery emits one structured record for a finished statement, read
// from what the statement itself owns — its span tree, the profile
// folded from it, the pages its budget metered — and attaches the
// rendered profile and explain tree when the statement was slow (met the
// log's slow-ticks threshold) or breached its budget: the slow-query
// capture.
func (e *Executor) logQuery(text string, cmd Command, root *obs.Span, prof *obs.Profile, pages int64, err error) {
	total := prof.Ticks
	e.clock += total
	e.sessionSeq++
	if e.events == nil {
		return
	}
	if text == "" {
		text = fmt.Sprintf("%T", cmd)
	}
	rec := &obs.QueryRecord{
		Query:      text,
		TotalTicks: total,
		Rows:       prof.RowsAt("scan"),
		Pages:      pages,
	}
	rec.ReadSpan(root)
	if e.session != "" {
		rec.Session = e.session
		rec.SessionSeq = e.sessionSeq
	}
	var be *obs.BudgetError
	if errors.As(err, &be) {
		rec.Budget = be.Error()
	} else if err != nil {
		rec.Err = err.Error()
	}
	slow := e.events.SlowTicks() > 0 && total >= e.events.SlowTicks()
	if slow || rec.Budget != "" {
		var pb, xb bytes.Buffer
		_ = prof.WriteTop(&pb, 10)   //lint:allow error-flow writes to a bytes.Buffer cannot fail
		_ = obs.WriteTree(&xb, root) //lint:allow error-flow writes to a bytes.Buffer cannot fail
		rec.Profile = pb.String()
		rec.Explain = xb.String()
		e.cSlow.Inc()
	}
	e.events.Log(obs.Event{Tick: e.clock, Kind: "query", Query: rec})
}

// exec dispatches one parsed command inside the caller's span.
func (e *Executor) exec(cmd Command) error {
	if handled, err := e.execAnalysis(cmd); handled {
		return err
	}
	switch c := cmd.(type) {
	case Help:
		fmt.Fprint(e.Out, helpText)
		return nil
	case Files:
		for _, f := range e.DBMS.Archive().Files() {
			rows, _ := e.DBMS.Archive().Rows(f) //lint:allow error-flow a file that vanished mid-listing shows 0 rows
			fmt.Fprintf(e.Out, "%s\t%d rows\n", f, rows)
		}
		return nil
	case Views:
		for _, n := range e.DBMS.Management().Views() {
			def, _ := e.DBMS.Management().View(n)
			vis := "private"
			if def.Public {
				vis = "public"
			}
			fmt.Fprintf(e.Out, "%s\tanalyst=%s\tsource=%s\t%s\n", n, def.Analyst, def.Source, vis)
		}
		return nil
	case Materialize:
		return e.execMaterialize(c)
	case Compute:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		val, rep, err := v.ComputeReport(c.Fn, c.Attr)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%s(%s) = %g\n", c.Fn, c.Attr, val)
		// A gather that lost shards still answers, with its provenance.
		if rep.Degraded() {
			fmt.Fprintf(e.Out, "degraded answer: %s\n", rep)
		}
		return nil
	case SummaryDump:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(e.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "FUNCTION_NAME\tATTRIBUTE_NAME\tRESULT\tSTATE")
		for _, row := range v.Summary().Dump() {
			state := "fresh"
			if !row.Fresh {
				state = "stale"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", row.Function, row.Attribute, row.Result, state)
		}
		return w.Flush()
	case Update:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		n, err := v.UpdateWhere(c.Attr, c.Where, c.Value)
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%d rows updated\n", n)
		return nil
	case Undo:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		if err := v.Undo(); err != nil {
			return err
		}
		fmt.Fprintln(e.Out, "undone")
		return nil
	case HistoryCmd:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		for _, rec := range v.History().Records() {
			fmt.Fprintf(e.Out, "#%d\t%s\t%s\t(%d cells)\n", rec.Seq, rec.Analyst, rec.Description, len(rec.Rows))
		}
		return nil
	case Publish:
		if err := e.Analyst.Publish(c.View); err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "view %s published\n", c.View)
		return nil
	case ShardsCmd:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		st, behind := v.ShardStore()
		if st == nil {
			return fmt.Errorf("query: view %s has no sharded backing", c.View)
		}
		if behind {
			fmt.Fprintf(e.Out, "sharded copy is behind view %s (updated since it was built): compute reads the view's rows until it is re-sharded\n", c.View)
		}
		w := tabwriter.NewWriter(e.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "SHARD\tHEALTH\tROWS\tCHUNKS\tGEN\tFAULTS\tRETRIES\tEXHAUSTED\tTICKS")
		retry := st.Metrics().Counters
		for _, si := range st.Info() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				si.Label, si.Health, si.Rows, si.Chunks, si.CkptGen, si.Faults.Injected(),
				retry[obs.LabeledName(obs.MStorageRetryAttempts, si.Label)],
				retry[obs.LabeledName(obs.MStorageRetryExhausted, si.Label)], si.DevTicks)
		}
		return w.Flush()
	case Show:
		v, err := e.Analyst.View(c.View)
		if err != nil {
			return err
		}
		ds := v.Dataset()
		w := tabwriter.NewWriter(e.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(ds.Schema().Names(), "\t"))
		n := ds.Rows()
		if n > c.Limit {
			n = c.Limit
		}
		for i := 0; i < n; i++ {
			cells := make([]string, ds.Schema().Len())
			for j := range cells {
				cells[j] = ds.Cell(i, j).String()
			}
			fmt.Fprintln(w, strings.Join(cells, "\t"))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if ds.Rows() > c.Limit {
			fmt.Fprintf(e.Out, "... (%d more rows)\n", ds.Rows()-c.Limit)
		}
		return nil
	}
	return fmt.Errorf("query: unhandled command %T", cmd)
}

func (e *Executor) execMaterialize(c Materialize) error {
	mb := e.Analyst.Materialize(c.Source)
	b := mb.Builder()
	if c.Where != nil {
		b.Select(c.Where)
	}
	if len(c.Project) > 0 {
		b.Project(c.Project...)
	}
	for _, a := range c.Decode {
		b.Decode(a)
	}
	if len(c.SortBy) > 0 {
		b.Sort(c.SortBy...)
	}
	v, err := mb.Build(c.View)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "view %s materialized: %d rows, %d attributes\n",
		c.View, v.Rows(), v.Dataset().Schema().Len())
	return nil
}

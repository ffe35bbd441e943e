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
)

// Executor runs parsed commands against a DBMS on behalf of one analyst,
// writing human-readable results to Out.
type Executor struct {
	DBMS    *core.DBMS
	Analyst *core.Analyst
	Out     io.Writer
	// Cached observability handles (query.* counters, system tracer,
	// continuous-profile ring; reg registers the per-verb SLO families
	// lazily as verbs run, into perVerb, indexed by the verb's row).
	cStatements *obs.Counter
	cErrors     *obs.Counter
	reg         *obs.Registry
	perVerb     []verbInstruments
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
	// last is what the statement being run measured, for RunMeasured.
	last Measured
}

// verbInstruments are one verb's SLO families: the query.ticks.<verb>
// histogram, registered on the verb's first statement, and the
// query.verb_errors.<verb> and query.budget_breaches.<verb> counters,
// registered on its first error and first breach, so only verbs that
// ran appear in exports.
type verbInstruments struct {
	ticks            *obs.Histogram
	errors, breaches *obs.Counter
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
		reg:         reg,
		perVerb:     make([]verbInstruments, len(verbs)),
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
// the verb it ran as (explain and profile report the verb they wrap),
// the cost-model ticks its folded profile charged, and the buffer-pool
// pages its budget recorded.
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
	v, cmd, err := parseStatement(input)
	if err != nil {
		e.cErrors.Inc()
		return Measured{}, err
	}
	e.cStatements.Inc()
	e.last = Measured{Verb: v.keyword}
	if v.run != nil {
		err = v.run(e, cmd, input)
	} else {
		_, err = e.runProfiled(v, cmd, input)
	}
	if err != nil {
		e.cErrors.Inc()
	}
	return e.last, err
}

// Run parses and executes one statement, counting it (and any failure)
// in the query.* metric family.
func (e *Executor) Run(input string) error {
	_, err := e.RunMeasured(input)
	return err
}

// runProfiled executes cmd under a "query" root span with a fresh
// budget installed on the tracer (ceilings from core.DBMS.QueryBudget;
// a zero-limit budget still accounts pages for the event record). A
// breached budget aborts the statement with the typed *obs.BudgetError
// — either surfaced by a budget-aware layer mid-flight or latched here
// after commands that bypass those layers — and the statement lands in
// the event log either way.
func (e *Executor) runProfiled(v *verb, cmd Command, text string) (*obs.Span, error) {
	e.last = Measured{Verb: v.keyword}
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
	err = v.exec(e, cmd)
	root.End()
	e.tracer.SetBudget(nil)
	if err == nil {
		err = budget.Err()
	}
	prof := e.observeVerb(v, root, err)
	_, pages := budget.Used()
	e.last = Measured{Verb: v.keyword, Ticks: prof.Ticks, Pages: pages}
	e.logQuery(text, root, prof, pages, err)
	return root, err
}

// observeVerb folds the finished statement's span tree into the
// continuous-profile ring under its verb and feeds the verb's SLO
// families: the tick histogram (total cost-model ticks), and the error
// and budget-breach counters.
func (e *Executor) observeVerb(v *verb, root *obs.Span, err error) *obs.Profile {
	prof := obs.FoldSpan(root)
	e.profiles.Add(v.keyword, prof)
	in := &e.perVerb[v.id]
	if in.ticks == nil {
		in.ticks = e.reg.Histogram(obs.LabeledName(obs.MQueryTicks, v.keyword), obs.QueryTicksBounds())
	}
	in.ticks.Observe(prof.Ticks)
	if err != nil {
		if in.errors == nil {
			in.errors = e.reg.Counter(obs.LabeledName(obs.MQueryVerbErrors, v.keyword))
		}
		in.errors.Inc()
		var be *obs.BudgetError
		if errors.As(err, &be) {
			if in.breaches == nil {
				in.breaches = e.reg.Counter(obs.LabeledName(obs.MQueryBreaches, v.keyword))
			}
			in.breaches.Inc()
		}
	}
	return prof
}

// logQuery emits one structured record for a finished statement, read
// from what the statement itself owns — its span tree, the profile
// folded from it, the pages its budget metered — and attaches the
// rendered profile and explain tree when the statement was slow (met the
// log's slow-ticks threshold) or breached its budget: the slow-query
// capture.
func (e *Executor) logQuery(text string, root *obs.Span, prof *obs.Profile, pages int64, err error) {
	total := prof.Ticks
	e.clock += total
	e.sessionSeq++
	if e.events == nil {
		return
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
	}
	e.events.Log(obs.Event{Tick: e.clock, Kind: "query", Query: rec})
}

// execStats dumps the registry. It runs unprofiled: a gate admission,
// a span and a tick histogram of its own would move what it prints.
func (e *Executor) execStats(Command, string) error {
	return e.DBMS.Metrics().WriteText(e.Out)
}

// execExplain runs the wrapped statement and prints its span tree.
func (e *Executor) execExplain(cmd Command, text string) error {
	c := cmd.(ExplainCmd)
	root, err := e.runProfiled(c.verb, c.Inner, text)
	if err != nil {
		return err
	}
	return obs.WriteTree(e.Out, root)
}

// execProfile runs the wrapped statement and prints its folded profile.
func (e *Executor) execProfile(cmd Command, text string) error {
	c := cmd.(ProfileCmd)
	root, err := e.runProfiled(c.verb, c.Inner, text)
	if err != nil {
		return err
	}
	return obs.FoldSpan(root).WriteTop(e.Out, 0)
}

func (e *Executor) execFiles(Command) error {
	for _, f := range e.DBMS.Archive().Files() {
		rows, _ := e.DBMS.Archive().Rows(f) //lint:allow error-flow a file that vanished mid-listing shows 0 rows
		fmt.Fprintf(e.Out, "%s\t%d rows\n", f, rows)
	}
	return nil
}

func (e *Executor) execViews(Command) error {
	for _, n := range e.DBMS.Management().Views() {
		def, _ := e.DBMS.Management().View(n)
		vis := "private"
		if def.Public {
			vis = "public"
		}
		fmt.Fprintf(e.Out, "%s\tanalyst=%s\tsource=%s\t%s\n", n, def.Analyst, def.Source, vis)
	}
	return nil
}

func (e *Executor) execCompute(cmd Command) error {
	c := cmd.(Compute)
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
}

func (e *Executor) execSummary(cmd Command) error {
	v, err := e.Analyst.View(cmd.(SummaryDump).View)
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
}

func (e *Executor) execUpdate(cmd Command) error {
	c := cmd.(Update)
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
}

func (e *Executor) execUndo(cmd Command) error {
	v, err := e.Analyst.View(cmd.(Undo).View)
	if err != nil {
		return err
	}
	if err := v.Undo(); err != nil {
		return err
	}
	fmt.Fprintln(e.Out, "undone")
	return nil
}

func (e *Executor) execHistory(cmd Command) error {
	v, err := e.Analyst.View(cmd.(HistoryCmd).View)
	if err != nil {
		return err
	}
	for _, rec := range v.History().Records() {
		fmt.Fprintf(e.Out, "#%d\t%s\t%s\t(%d cells)\n", rec.Seq, rec.Analyst, rec.Description, len(rec.Rows))
	}
	return nil
}

func (e *Executor) execPublish(cmd Command) error {
	c := cmd.(Publish)
	if err := e.Analyst.Publish(c.View); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "view %s published\n", c.View)
	return nil
}

func (e *Executor) execShards(cmd Command) error {
	c := cmd.(ShardsCmd)
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
}

func (e *Executor) execShow(cmd Command) error {
	c := cmd.(Show)
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

func (e *Executor) execMaterialize(cmd Command) error {
	c := cmd.(Materialize)
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

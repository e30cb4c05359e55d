// Package bench contains one runner per table and figure in the paper's
// evaluation. Each runner executes the real systems in this repository
// (not canned numbers, except where DESIGN.md documents a calibrated
// baseline), reduces the measurements the way the paper does, and returns
// a Table whose rows mirror what the paper reports.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated table or figure.
type Table struct {
	ID     string // "fig2", "tab1", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Runner produces one experiment's table. Trials is advisory; runners
// clamp it to sane minimums.
type Runner func(trials int) (*Table, error)

// Registry maps experiment IDs to runners, in paper order.
var Registry = []struct {
	ID    string
	Paper string
	Run   Runner
}{
	{"fig2", "Fig 2: lower bounds on execution context creation", Fig2},
	{"tab1", "Table 1: boot time breakdown (minimal runtime)", Table1},
	{"fig3", "Fig 3: fib(20) latency across processor modes", Fig3},
	{"fig4", "Fig 4: echo server startup milestones", Fig4},
	{"fig8", "Fig 8: creation latencies incl. Wasp pooling", Fig8},
	{"tab2", "Table 2: isolation boundary crossing costs", Table2},
	{"fig11", "Fig 11: virtine latency vs computational intensity", Fig11},
	{"fig12", "Fig 12: image size vs start-up latency", Fig12},
	{"fig13", "Fig 13: HTTP server latency and throughput", Fig13},
	{"fig14", "Fig 14: JavaScript virtine slowdowns", Fig14},
	{"fig15", "Fig 15: serverless virtines vs OpenWhisk", Fig15},
	{"sched", "Scheduler saturation: Run throughput vs workers", SchedSaturation},
	{"wasp-ca", "Wasp+C vs Wasp+CA: async cleaning off the critical path", WaspCA},
	{"admission", "Multi-tenant admission control: noisy-neighbor fairness", AdmissionFairness},
	{"interp", "Interpreter host speed: MIPS / ns per guest instruction", InterpSpeed},
	{"placement", "Multi-backend placement: homogeneous vs split fleets", Placement},
	{"snapshot", "Snapshot forest: marginal memory per tenant clone", SnapshotForest},
	{"rebalance", "Live rebalancing: drifting tenant, sticky vs migrating placement", Rebalance},
	{"cluster", "Cluster autoscaling frontier: SLO vs cost, scaling and batch rows", Cluster},
}

// Lookup finds a runner by experiment ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// All runs every experiment.
func All(trials int) ([]*Table, error) {
	var out []*Table
	for _, e := range Registry {
		t, err := e.Run(trials)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func clampTrials(trials, lo, hi int) int {
	if trials < lo {
		return lo
	}
	if trials > hi {
		return hi
	}
	return trials
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d0(v uint64) string  { return fmt.Sprintf("%d", v) }
func di(v int) string     { return fmt.Sprintf("%d", v) }

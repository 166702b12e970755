package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// WriteTable renders a result as an aligned text table: one block per
// series, one row per size, with the model column plus any extras.
func WriteTable(w io.Writer, res Result) {
	fmt.Fprintf(w, "== %s ==\n", res.Title)
	extras := extraColumns(res)
	for _, series := range seriesOf(res) {
		rows := res.SeriesRows(series)
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n-- %s --\n", series)
		fmt.Fprintf(w, "%10s %14s", "size", "model(us)")
		for _, col := range extras {
			fmt.Fprintf(w, " %16s", col)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %14.2f", r.Size, r.ModelUS)
			for _, col := range extras {
				if v, ok := r.Extra[col]; ok {
					fmt.Fprintf(w, " %16.0f", v)
				} else {
					fmt.Fprintf(w, " %16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	if len(res.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range res.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	fmt.Fprintln(w)
}

// WriteCSV renders a result as CSV with a header row.
func WriteCSV(w io.Writer, res Result) {
	extras := extraColumns(res)
	fmt.Fprintf(w, "experiment,series,size,model_us")
	for _, col := range extras {
		fmt.Fprintf(w, ",%s", col)
	}
	fmt.Fprintln(w)
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s,%q,%d,%.3f", res.Name, r.Series, r.Size, r.ModelUS)
		for _, col := range extras {
			if v, ok := r.Extra[col]; ok {
				fmt.Fprintf(w, ",%.0f", v)
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

// WritePlot renders a crude ASCII chart of model time (log-ish vertical
// compression) for eyeballing the Figure 2 shape in a terminal.
func WritePlot(w io.Writer, res Result) {
	series := seriesOf(res)
	var max float64
	for _, r := range res.Rows {
		if r.ModelUS > max {
			max = r.ModelUS
		}
	}
	if max == 0 {
		return
	}
	const width = 60
	fmt.Fprintf(w, "model time per series (each bar ∝ mean over sizes, max %.1fus)\n", max)
	for _, s := range series {
		rows := res.SeriesRows(s)
		if len(rows) == 0 {
			continue
		}
		var sum float64
		for _, r := range rows {
			sum += r.ModelUS
		}
		mean := sum / float64(len(rows))
		n := int(mean / max * width)
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(w, "%-36s |%s %.1fus\n", s, strings.Repeat("#", n), mean)
	}
	fmt.Fprintln(w)
}

// seriesOf returns the declared series order, falling back to insertion
// order of the rows.
func seriesOf(res Result) []string {
	if len(res.SeriesOrder) > 0 {
		return res.SeriesOrder
	}
	seen := make(map[string]bool)
	var out []string
	for _, r := range res.Rows {
		if !seen[r.Series] {
			seen[r.Series] = true
			out = append(out, r.Series)
		}
	}
	return out
}

// extraColumns collects the union of extra column names, sorted.
func extraColumns(res Result) []string {
	seen := make(map[string]bool)
	for _, r := range res.Rows {
		for col, v := range r.Extra {
			if v != 0 {
				seen[col] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for col := range seen {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// An Experiment is one row of the catalogue rmabench runs and lists.
type Experiment struct {
	ID      string
	Aliases []string // other ids Lookup accepts
	Run     func() Result
	InAll   bool // run when rmabench is given no -exp
}

// Experiments is the catalogue, in the order rmabench runs and lists it.
var Experiments = []Experiment{
	{"fig2", nil, RunFig2, true},
	{"fig1", []string{"e6"}, RunFig1, true},
	{"e3", nil, RunE3, true},
	{"e4", nil, RunE4, true},
	{"e5", nil, RunE5, true},
	{"e7", nil, RunE7, true},
	{"e8", nil, RunE8, true},
	{"e9", nil, RunE9, true},
	{"e10", nil, RunE10, true},
	{"e11", nil, RunE11, true},
	{"e12", nil, RunE12, true},
	{"e13", nil, RunE13, true},
	{"e14", nil, RunE14, true},
	{"e15", nil, RunE15, true},
	{"chaos", nil, RunChaos, false},
}

// Lookup returns the experiment whose id or alias is name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == name || slices.Contains(e.Aliases, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

package bench

import (
	"fmt"
	"io"
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

// All runs every experiment in catalogue order.
func All() []Result {
	return []Result{
		RunFig2(),
		RunFig1(),
		RunE3(),
		RunE4(),
		RunE5(),
		RunE7(),
		RunE8(),
		RunE9(),
		RunE10(),
		RunE11(),
		RunE12(),
		RunE13(),
		RunE14(),
		RunE15(),
	}
}

// ByName runs one experiment by id; ok is false for unknown ids.
func ByName(name string) (Result, bool) {
	switch name {
	case "fig2":
		return RunFig2(), true
	case "fig1", "e6":
		return RunFig1(), true
	case "e3":
		return RunE3(), true
	case "e4":
		return RunE4(), true
	case "e5":
		return RunE5(), true
	case "e7":
		return RunE7(), true
	case "e8":
		return RunE8(), true
	case "e9":
		return RunE9(), true
	case "e10":
		return RunE10(), true
	case "e11":
		return RunE11(), true
	case "e12":
		return RunE12(), true
	case "e13":
		return RunE13(), true
	case "e14":
		return RunE14(), true
	case "e15":
		return RunE15(), true
	case "chaos":
		return RunChaos(), true
	default:
		return Result{}, false
	}
}

// Names lists the experiment ids ByName accepts.
func Names() []string {
	return []string{"fig2", "fig1", "e3", "e4", "e5", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "chaos"}
}

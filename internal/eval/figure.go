// Package eval holds the figures of the paper's evaluation (§7): the
// Figure type and its writers, the named receivers and detection
// scanners that internal/experiment sweeps score for network throughput
// (Figs 28–31), packet detection (Figs 32–35) and the CIC feature
// ablation (Figs 36–37), and the single-shot figures: temporal-proximity
// SER (Fig 38), the cancellation-extent map (Fig 17), the Heisenberg
// illustration (Fig 15), preamble-detection clutter (Figs 19–20),
// deployment SNR distributions (Fig 27), the deployment maps
// (Figs 22–26), and the collision spectra demonstration (Figs 12–14).
package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Series is one line of a figure. YErr, when non-nil, carries a symmetric
// error half-width per point (the experiment harness emits 95% confidence
// intervals across seeds); nil YErr keeps every writer's output exactly as
// it was before error bars existed.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	YErr []float64
}

// Figure is a regenerated paper figure as raw data.
type Figure struct {
	ID     string // e.g. "fig28"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// WriteCSV emits the figure as CSV after a "# id: title" comment line:
// one row per X value, one column per series. Series are aligned by index
// (all experiment drivers emit series on a shared X grid). A series with
// YErr set gets a second "<name> ci95" column holding the interval
// half-width. Fields are quoted as RFC 4180 requires, so a series name
// holding a comma ("CIC-(Power,CFO)") stays one column.
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
		if s.YErr != nil {
			cols = append(cols, s.Name+" ci95")
		}
	}
	if err := cw.Write(cols); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := []string{fmt.Sprintf("%g", f.Series[0].X[i])}
			for _, s := range f.Series {
				row = append(row, cell(s.Y, i))
				if s.YErr != nil {
					row = append(row, cell(s.YErr, i))
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// cell formats vs[i] for a CSV row, empty past the end of vs.
func cell(vs []float64, i int) string {
	if i < len(vs) {
		return fmt.Sprintf("%.4g", vs[i])
	}
	return ""
}

// WriteTable emits a human-readable aligned table of the figure.
func (f Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	xw := len(f.XLabel) + 2
	if xw < 14 {
		xw = 14
	}
	cw := 14
	for _, s := range f.Series {
		if len(s.Name)+2 > cw {
			cw = len(s.Name) + 2
		}
	}
	header := fmt.Sprintf("%-*s", xw, f.XLabel)
	for _, s := range f.Series {
		header += fmt.Sprintf("%*s", cw, s.Name)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i := range f.Series[0].X {
		row := fmt.Sprintf("%-*g", xw, f.Series[0].X[i])
		for _, s := range f.Series {
			switch {
			case i < len(s.Y) && i < len(s.YErr):
				row += fmt.Sprintf("%*s", cw, fmt.Sprintf("%.3f±%.3f", s.Y[i], s.YErr[i]))
			case i < len(s.Y):
				row += fmt.Sprintf("%*.3f", cw, s.Y[i])
			default:
				row += fmt.Sprintf("%*s", cw, "-")
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(y axis: %s)\n\n", f.YLabel)
	return err
}

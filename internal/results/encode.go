package results

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Encoder renders a Result to a writer in one output format.
type Encoder interface {
	Encode(w io.Writer, r *Result) error
}

// Formats lists the supported encoder names.
func Formats() []string { return []string{"table", "json", "csv"} }

// NewEncoder returns the encoder for a format name ("table" or "text"
// for fixed-width text, "json", "csv").
func NewEncoder(format string) (Encoder, error) {
	switch format {
	case "table", "text":
		return textEncoder{}, nil
	case "json":
		return jsonEncoder{}, nil
	case "csv":
		return csvEncoder{}, nil
	}
	return nil, fmt.Errorf("results: unknown format %q (want %s)",
		format, strings.Join(Formats(), "|"))
}

// EncodeAll renders a sequence of results: JSON always emits an array
// (so consumers see one shape regardless of run count), text and CSV
// emit each result in order. Use a json Encoder directly for a single
// bare object.
func EncodeAll(w io.Writer, format string, rs []*Result) error {
	if format == "json" {
		if rs == nil {
			rs = []*Result{} // a nil slice would marshal to null, not []
		}
		return writeJSON(w, rs)
	}
	enc, err := NewEncoder(format)
	if err != nil {
		return err
	}
	for i, r := range rs {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := enc.Encode(w, r); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJSON reads back a single JSON-encoded Result (the format the
// json encoder writes for one result — e.g. a result perfbench checks).
func DecodeJSON(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(r)
	res := &Result{}
	if err := dec.Decode(res); err != nil {
		return nil, fmt.Errorf("results: decode: %w", err)
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// TextString renders a result with the fixed-width text encoder.
func TextString(r *Result) string {
	var b strings.Builder
	_ = textEncoder{}.Encode(&b, r)
	return b.String()
}

type textEncoder struct{}

func (textEncoder) Encode(w io.Writer, r *Result) error {
	if r.Meta.Experiment != "" {
		if _, err := fmt.Fprintf(w, "# %s seed=%d nodes=%d ppn=%d wall=%v\n",
			r.Meta.Experiment, r.Meta.Seed, r.Meta.Nodes, r.Meta.PPN, r.Meta.Wall); err != nil {
			return err
		}
	}
	for i, t := range r.Tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if t.Name != "" && (len(r.Tables) > 1 || len(r.Series) > 0) {
			if _, err := fmt.Fprintf(w, "[%s]\n", t.Name); err != nil {
				return err
			}
		}
		if err := writeFixedWidth(w, t); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		unit := s.YUnit
		if unit == "" {
			unit = "y"
		}
		if _, err := fmt.Fprintf(w, "series %s (%s):", s.Name, unit); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, " %.2f", p.Y); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// writeFixedWidth renders one table with columns padded to their widest
// cell, a dashed rule under the header.
func writeFixedWidth(w io.Writer, t *Table) error {
	widths := make([]int, len(t.Columns))
	for i, h := range t.Columns {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.Text()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, width := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

type jsonEncoder struct{}

func (jsonEncoder) Encode(w io.Writer, r *Result) error { return writeJSON(w, r) }

// writeJSON is the one place that fixes the JSON framing (indent,
// trailing newline) for both single results and arrays.
func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

type csvEncoder struct{}

// Encode writes each table as its own CSV block — a header row of
// experiment,seed,table,<columns> then one record per row — and each
// series as experiment,seed,series,x,y records, with a blank line
// between blocks. The seed column keeps seed-replica runs attributable
// after their blocks are concatenated.
func (csvEncoder) Encode(w io.Writer, r *Result) error {
	cw := csv.NewWriter(w)
	seed := strconv.FormatUint(r.Meta.Seed, 10)
	first := true
	blockGap := func() error {
		if !first {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		first = false
		return nil
	}
	for _, t := range r.Tables {
		if err := blockGap(); err != nil {
			return err
		}
		header := append([]string{"experiment", "seed", "table"}, t.Columns...)
		if err := cw.Write(header); err != nil {
			return err
		}
		for _, row := range t.Rows {
			rec := make([]string, 0, len(row)+3)
			rec = append(rec, r.Meta.Experiment, seed, t.Name)
			for _, v := range row {
				rec = append(rec, v.csv())
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		if err := blockGap(); err != nil {
			return err
		}
		if err := cw.Write([]string{"experiment", "seed", "series", "x", "y"}); err != nil {
			return err
		}
		for _, p := range s.Points {
			rec := []string{
				r.Meta.Experiment, seed, s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

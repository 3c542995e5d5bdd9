package report

import (
	"encoding/csv"
	"encoding/json"
	"io"
)

// tableJSON is the wire form of a Table: a stable field set so encoded
// tables are byte-identical for identical results.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {id, title, note, headers, rows}.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{
		ID: t.ID, Title: t.Title, Note: t.Note, Headers: t.Headers, Rows: rows,
	})
}

// UnmarshalJSON decodes the MarshalJSON form.
func (t *Table) UnmarshalJSON(b []byte) error {
	var v tableJSON
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*t = Table{ID: v.ID, Title: v.Title, Note: v.Note, Headers: v.Headers, Rows: v.Rows}
	return nil
}

// WriteCSV writes the table as RFC-4180 CSV: one header record followed by
// the data rows. ID, title and note are not part of the CSV payload (they
// travel in filenames or HTTP headers).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

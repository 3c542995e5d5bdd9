package httpjson

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type msg struct {
	ID int `json:"id"`
}

// strictCases are the inputs every strict decoder of the module once
// disagreed on: trailing values, stray closing brackets and trailing words.
var strictCases = []struct {
	name, body string
	ok         bool
}{
	{"value", `{"id":1}`, true},
	{"surrounding white space", " \t\r\n{\"id\":1}\n\t \r", true},
	{"unknown field", `{"id":1,"extra":true}`, false},
	{"second value", `{"id":1}{"id":2}`, false},
	{"second value and garbage", `{"id":1}{"id":2} garbage`, false},
	{"closing brace", `{"id":1} }`, false},
	{"closing bracket", `{"id":1} ]`, false},
	{"trailing word", `{"id":1} trailing`, false},
	{"trailing number", `{"id":1} 5`, false},
	{"form feed", "{\"id\":1}\f", false},
	{"empty", ``, false},
	{"truncated", `{"id":`, false},
}

func TestDecodeStrict(t *testing.T) {
	for _, tc := range strictCases {
		var m msg
		err := DecodeStrict(strings.NewReader(tc.body), &m)
		if (err == nil) != tc.ok {
			t.Errorf("%s: DecodeStrict(%q) error = %v, want ok=%v", tc.name, tc.body, err, tc.ok)
		}
		if tc.ok && m.ID != 1 {
			t.Errorf("%s: decoded %+v, want id 1", tc.name, m)
		}
	}
}

func TestDecodeStatus(t *testing.T) {
	check := func(name, body string, want int) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		var m msg
		if Decode(rec, req, &m, 32) {
			Write(rec, http.StatusOK, m)
		}
		if rec.Code != want {
			t.Errorf("%s: Decode(%q) answered %d %s, want %d", name, body, rec.Code, rec.Body, want)
		}
	}
	check("body over the limit", `{"id":1}`+strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge)
	for _, tc := range strictCases {
		want := http.StatusBadRequest
		if tc.ok {
			want = http.StatusOK
		}
		check(tc.name, tc.body, want)
	}
}

// TestReadBodyStatus: ReadBody returns a body within the limit whether or
// not its length is declared, and answers an oversized or short body as
// Decode would.
func TestReadBodyStatus(t *testing.T) {
	for _, tc := range []struct {
		name     string
		body     string
		declared int64 // Content-Length; -1 for none
		want     int
	}{
		{"declared, within the limit", "0123456789", 10, http.StatusOK},
		{"undeclared, within the limit", "0123456789", -1, http.StatusOK},
		{"declared over the limit", strings.Repeat("x", 40), 40, http.StatusRequestEntityTooLarge},
		{"undeclared over the limit", strings.Repeat("x", 40), -1, http.StatusRequestEntityTooLarge},
		{"shorter than declared", "0123", 10, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		req.ContentLength = tc.declared
		b, ok := ReadBody(rec, req, 32)
		if ok != (tc.want == http.StatusOK) || !ok && rec.Code != tc.want {
			t.Errorf("%s: ReadBody ok=%v, answered %d %s, want %d", tc.name, ok, rec.Code, rec.Body, tc.want)
		}
		if ok && string(b) != tc.body {
			t.Errorf("%s: ReadBody = %q, want %q", tc.name, b, tc.body)
		}
	}
}

// FuzzDecodeStrict checks DecodeStrict against json.Unmarshal: into an untyped
// value, where no field can be unknown, both must accept exactly the same
// inputs and produce the same value.
func FuzzDecodeStrict(f *testing.F) {
	for _, tc := range strictCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want any
		gotErr := DecodeStrict(bytes.NewReader(data), &got)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeStrict(%q) error = %v, json.Unmarshal error = %v", data, gotErr, wantErr)
		}
		if gotErr == nil {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if string(g) != string(w) {
				t.Fatalf("DecodeStrict(%q) = %s, json.Unmarshal = %s", data, g, w)
			}
		}
	})
}

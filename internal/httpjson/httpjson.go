// Package httpjson holds the JSON-over-HTTP plumbing shared by the galsimd
// service handlers and the cluster fleet endpoints: one implementation of
// response encoding, error bodies, strict request decoding and capped
// reads of raw request bodies, so a fix to any of them cannot silently miss
// a package. Its strict decoder, DecodeStrict, also parses the hand-written
// JSON documents galsim reads from files: machine specs, workload profiles
// and search specs.
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Write encodes v as indented JSON with the given status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// Error writes the canonical {"error": "..."} body.
func Error(w http.ResponseWriter, status int, err error) {
	Write(w, status, map[string]string{"error": err.Error()})
}

// ErrorCode writes {"error": "...", "code": "..."}: the stable machine-
// readable code lets clients branch on the failure class without parsing
// prose (which is free to improve).
func ErrorCode(w http.ResponseWriter, status int, code string, err error) {
	Write(w, status, map[string]string{"error": err.Error(), "code": code})
}

// CodeBodyTooLarge is the ErrorCode value for oversized request bodies.
const CodeBodyTooLarge = "body_too_large"

// Decode strictly parses a request body of at most maxBytes into v with
// DecodeStrict. An oversized body is answered with 413 and a typed code (the
// client must shrink the request, not fix its syntax); any other failure
// writes a 400. Returns false when a response was written.
func Decode(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) bool {
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, maxBytes), v); err != nil {
		bodyError(w, "decoding", err)
		return false
	}
	return true
}

// ReadBody reads a raw request body of at most maxBytes into one buffer,
// sized from Content-Length when the request declares it. Failures are
// answered as Decode answers them: 413 for an oversized body, 400 for any
// other. Returns false when a response was written.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, bool) {
	if r.ContentLength > maxBytes {
		bodyError(w, "reading", &http.MaxBytesError{Limit: maxBytes})
		return nil, false
	}
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	var b []byte
	var err error
	if r.ContentLength >= 0 {
		b = make([]byte, r.ContentLength)
		_, err = io.ReadFull(body, b)
	} else {
		b, err = io.ReadAll(body)
	}
	if err != nil {
		bodyError(w, "reading", err)
		return nil, false
	}
	return b, true
}

// bodyError answers a failure to read or decode a request body.
func bodyError(w http.ResponseWriter, op string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		ErrorCode(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	Error(w, http.StatusBadRequest, fmt.Errorf("%s request body: %w", op, err))
}

// DecodeStrict parses r, which must hold exactly one JSON value, into v. It
// rejects object fields that v does not declare, so a typo or a newer
// peer's setting fails loudly instead of being dropped, and anything but
// white space after the value. A failure to read r is returned as is.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var syntax *json.SyntaxError
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, &syntax):
		return errors.New("trailing data after the JSON value")
	default:
		return err
	}
}

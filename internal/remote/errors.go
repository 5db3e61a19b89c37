package remote

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hacfs/internal/vfs"
)

// Typed errors over the wire. The protocol carries errors as one
// message string (the fErr frame's payload).
// A bare string loses the error's type, so cluster failures — a shard
// lost mid-query, a quota rejection — would reach clients as anonymous
// text instead of a *vfs.PathError they can errors.Is against.
//
// encodeWireError flattens an error into a message that starts with a
// marker no human-written message uses; decodeWireError reconstructs
// the *vfs.PathError (op, path, sentinel) on the client side. Messages
// without the marker — free-form failures — decode to a *ServerError.
//
// Marker format (all fields strconv-quoted, space-separated):
//
//	!pe1 <op> <path> <code> <message>
//
// code names a vfs sentinel ("" = none survives the trip; the message
// alone is kept).

// wireErrMarker opens an encoded typed error. The leading '!' cannot
// start a quoted field.
const wireErrMarker = "!pe1"

// wireCodes maps sentinel codes to the sentinels themselves. Only
// errors meaningful across a process boundary are listed; purely local
// conditions (ErrClosed, ErrInjected, ...) stay free-form.
var wireCodes = map[string]error{
	"not-exist":         vfs.ErrNotExist,
	"exist":             vfs.ErrExist,
	"not-dir":           vfs.ErrNotDir,
	"is-dir":            vfs.ErrIsDir,
	"invalid":           vfs.ErrInvalid,
	"unsupported":       vfs.ErrUnsupported,
	"quota":             vfs.ErrQuotaExceeded,
	"backpressure":      vfs.ErrBackpressure,
	"shutting-down":     vfs.ErrShuttingDown,
	"shard-unavailable": vfs.ErrShardUnavailable,
}

// codeOf returns the wire code for err's sentinel, or "".
func codeOf(err error) string {
	for code, sentinel := range wireCodes {
		if errors.Is(err, sentinel) {
			return code
		}
	}
	return ""
}

// encodeWireError renders err for the wire.
func encodeWireError(err error) string {
	var op, path string
	inner := err
	var pe *vfs.PathError
	if errors.As(err, &pe) {
		op, path, inner = pe.Op, pe.Path, pe.Err
	}
	code := codeOf(err)
	if op == "" && path == "" && code == "" {
		return err.Error() // nothing typed to preserve
	}
	return strings.Join([]string{
		wireErrMarker, strconv.Quote(op), strconv.Quote(path), strconv.Quote(code), strconv.Quote(inner.Error()),
	}, " ")
}

// wireWrapped carries a decoded message while unwrapping to the
// sentinel its wire code named, so errors.Is works on the
// reconstructed error without losing the server's detail text.
type wireWrapped struct {
	msg      string
	sentinel error
}

func (w *wireWrapped) Error() string { return w.msg }
func (w *wireWrapped) Unwrap() error { return w.sentinel }

// ServerError is a free-form failure reported by the server — anything
// the typed codec does not cover. It is terminal: retrying another replica cannot
// help, the server itself answered.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "remote: server: " + e.Msg }

// decodeWireError reconstructs a server-reported error from its wire
// message.
func decodeWireError(msg string) error {
	rest, ok := strings.CutPrefix(msg, wireErrMarker+" ")
	if !ok {
		return &ServerError{Msg: msg}
	}
	fields := make([]string, 0, 4)
	for len(fields) < 4 {
		rest = strings.TrimLeft(rest, " ")
		q, tail, err := cutQuoted(rest)
		if err != nil {
			return &ServerError{Msg: msg} // malformed marker: keep the text
		}
		fields = append(fields, q)
		rest = tail
	}
	op, path, code, text := fields[0], fields[1], fields[2], fields[3]
	inner := error(errors.New(text))
	if sentinel, ok := wireCodes[code]; ok {
		if text == sentinel.Error() {
			inner = sentinel
		} else {
			inner = &wireWrapped{msg: text, sentinel: sentinel}
		}
	}
	if op == "" && path == "" {
		return inner
	}
	return &vfs.PathError{Op: op, Path: path, Err: inner}
}

// cutQuoted splits one Go-quoted field off the front of s.
func cutQuoted(s string) (field, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	field, err = strconv.Unquote(q)
	if err != nil {
		return "", "", fmt.Errorf("remote: malformed quoted field: %w", err)
	}
	return field, s[len(q):], nil
}

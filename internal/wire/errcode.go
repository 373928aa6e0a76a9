package wire

import (
	"errors"
	"net/http"

	srv "github.com/irsgo/irs/internal/server"
)

// The serving error vocabulary travels between processes as a short
// machine-readable code plus an HTTP-compatible status. Both transports
// share this table: the HTTP layer carries it as the JSON error envelope's
// code and the response status, the TCP transport as the error message's
// code and status fields — so errors.Is answers identically no matter
// which wire the request took.

// ErrCode maps a serving-core error to its wire code and HTTP status.
func ErrCode(err error) (code string, status int) {
	switch {
	case errors.Is(err, srv.ErrUnknownDataset):
		return "unknown_dataset", http.StatusNotFound
	case errors.Is(err, srv.ErrAmbiguousDataset):
		return "ambiguous_dataset", http.StatusBadRequest
	case errors.Is(err, srv.ErrDuplicateDataset):
		return "duplicate_dataset", http.StatusConflict
	case errors.Is(err, srv.ErrInvalidRange):
		return "invalid_range", http.StatusBadRequest
	case errors.Is(err, srv.ErrInvalidCount):
		return "invalid_count", http.StatusBadRequest
	case errors.Is(err, srv.ErrInvalidWeight):
		return "invalid_weight", http.StatusBadRequest
	case errors.Is(err, srv.ErrNotWeighted):
		return "not_weighted", http.StatusBadRequest
	case errors.Is(err, srv.ErrNotDurable):
		return "not_durable", http.StatusConflict
	case errors.Is(err, srv.ErrEmptyRange):
		return "empty_range", http.StatusUnprocessableEntity
	case errors.Is(err, srv.ErrOverloaded):
		return "overloaded", http.StatusServiceUnavailable
	case errors.Is(err, srv.ErrShuttingDown):
		return "shutting_down", http.StatusServiceUnavailable
	case errors.Is(err, srv.ErrUnavailable):
		return "unavailable", http.StatusBadGateway
	case errors.Is(err, ErrFrame):
		return "bad_request", http.StatusBadRequest
	default:
		return "internal", http.StatusInternalServerError
	}
}

// CodeToErr is the client-side inverse of ErrCode: wire code to the
// sentinel error the code unwraps to. Codes with no sentinel (bad_request,
// internal) are absent.
var CodeToErr = map[string]error{
	"unknown_dataset":   srv.ErrUnknownDataset,
	"ambiguous_dataset": srv.ErrAmbiguousDataset,
	"duplicate_dataset": srv.ErrDuplicateDataset,
	"invalid_range":     srv.ErrInvalidRange,
	"invalid_count":     srv.ErrInvalidCount,
	"invalid_weight":    srv.ErrInvalidWeight,
	"not_weighted":      srv.ErrNotWeighted,
	"not_durable":       srv.ErrNotDurable,
	"empty_range":       srv.ErrEmptyRange,
	"overloaded":        srv.ErrOverloaded,
	"shutting_down":     srv.ErrShuttingDown,
	"unavailable":       srv.ErrUnavailable,
}

// EncodeError appends the TCP transport's error payload: the wire code,
// the HTTP-compatible status, and the human-readable message.
//
//	u16 status | u8 len(code) | code | u16 len(msg) | msg
func EncodeError(b []byte, code string, status int, msg string) []byte {
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	b = binAppendU16(b, uint16(status))
	b = append(b, byte(len(code)))
	b = append(b, code...)
	b = binAppendU16(b, uint16(len(msg)))
	b = append(b, msg...)
	return b
}

// DecodeError parses the TCP transport's error payload.
func DecodeError(b []byte) (code string, status int, msg string, err error) {
	r := frameReader{b: b}
	st, cb := r.u16(), r.name()
	mb := r.bytes(int(r.u16()), "payload")
	if err := r.done(); err != nil {
		return "", 0, "", err
	}
	return string(cb), int(st), string(mb), nil
}

func binAppendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

package server

import "github.com/irsgo/irs/internal/wire"

// Wire types of the irsd JSON data protocol (the snapshot and admin
// endpoints keep theirs in durable.go and admin.go). The Dataset field of
// every request may be empty when exactly one dataset is registered;
// responses always echo the resolved name.

// The data requests are the frame protocol's own request types, whose json
// tags spell the JSON bodies: one struct per operation, whatever the codec.
type (
	SampleRequest     = wire.SampleReq // Stats (frame kind 0x07) has no JSON form
	InsertRequest     = wire.InsertReq
	DeleteRequest     = wire.DeleteReq
	UpdateRequest     = wire.UpdateReq
	RangeStatsRequest = wire.RangeStatsReq
)

// ContentTypeBinary is the media type of the binary frames on HTTP; the
// frame layouts are listed in the internal/wire package comment.
const ContentTypeBinary = wire.ContentTypeBinary

// SampleResponse carries the T samples, in draw order.
type SampleResponse struct {
	Dataset string    `json:"dataset"`
	Samples []float64 `json:"samples"`
}

// InsertResponse reports how many items were stored.
type InsertResponse struct {
	Dataset  string `json:"dataset"`
	Inserted int    `json:"inserted"`
}

// UpdateResponse reports how many keys were present and re-weighted.
type UpdateResponse struct {
	Dataset string `json:"dataset"`
	Updated int    `json:"updated"`
}

// RangeStatsResponse reports the in-range key count and sampling mass.
type RangeStatsResponse struct {
	Dataset string  `json:"dataset"`
	Count   int     `json:"count"`
	Mass    float64 `json:"mass"`
}

// DeleteResponse reports how many keys were present and removed.
type DeleteResponse struct {
	Dataset string `json:"dataset"`
	Removed int    `json:"removed"`
}

// ErrorResponse is the error envelope every non-2xx response carries.
type ErrorResponse struct {
	Error WireError `json:"error"`
}

// WireError is a machine-readable code plus a human-readable message.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

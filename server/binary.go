package server

// Binary frames ride HTTP on every data endpoint, negotiated per request via
//
//	Content-Type: application/x-irs-bin
//
// on the request; the response answers in kind, and every error response
// stays in the JSON {"error":{code,message}} envelope, so errors.Is works
// identically over both encodings. The frame layouts are listed once, in
// the internal/wire package comment; frame.go serves them and
// frameclient.go is their typed client.

import "github.com/irsgo/irs/internal/wire"

// ContentTypeBinary is the negotiated media type of the binary frames.
const ContentTypeBinary = wire.ContentTypeBinary

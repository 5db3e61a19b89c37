// Package remote implements a network protocol for content-based
// access, so a HAC volume can semantically mount query systems running
// elsewhere (§3 of the paper). The server side exposes an index over a
// document tree; the client side (BinClient) implements hac.Namespace.
//
// The protocol is the multiplexed binary framing of internal/wire
// (DESIGN.md §12); binary.go lists its frame types. Errors travel as
// one message string that may carry a typed error in the
// encodeWireError format (errors.go); clients reconstruct the
// *vfs.PathError and its sentinel, and fall back to a plain
// *ServerError for unmarked messages. A trace context rides the wire
// trace header of the request frame.
package remote

// maxLine bounds one string field of a request or result page (a
// query, a scope or a path); longer fields are rejected.
const maxLine = 64 * 1024

// maxFetch bounds a fetched document.
const maxFetch = 16 << 20

// Package remotefs exports a whole file system over TCP — the
// machinery behind distributed syntactic mount points (§3 of the
// paper: "Connecting different file systems across a distributed
// system can be done with mount points... They allow different file
// systems to share certain directories").
//
// A Server wraps any vfs.FileSystem (a raw MemFS or a live HAC volume)
// and serves it; a MuxClient implements vfs.FileSystem, so the remote
// volume can be mounted into a local tree with MemFS.Mount, browsed,
// written to, and even used as the substrate of a local HAC layer.
// This is how one user's personal classification becomes visible to
// coworkers (§3.2).
//
// The protocol is the multiplexed binary framing of internal/wire
// (DESIGN.md §12): each request and each response is one frame whose
// payload is the fixed-schema codec of codec.go, and many requests —
// from many goroutines and many tenant views — share one connection.
package remotefs

import (
	"errors"

	"hacfs/internal/vfs"
)

// op codes.
type opCode uint8

const (
	opMkdir opCode = iota + 1
	opMkdirAll
	opOpenFile
	opReadFile
	opWriteFile
	opSymlink
	opReadlink
	opRemove
	opRemoveAll
	opRename
	opStat
	opLstat
	opReadDir
	// per-handle operations
	opFileRead
	opFileWrite
	opFileReadAt
	opFileWriteAt
	opFileSeek
	opFileTruncate
	opFileStat
	opFileClose
	opPing
	// opSearch asks the served file system for one cursor page of query
	// matches (Path = scope, Path2 = query, Offset = after-cursor,
	// N = page limit). Only file systems that implement Searcher — a HAC
	// volume — answer it; others reply Unsupported.
	opSearch
	// opSync restores scope consistency for the semantic directory at
	// Path (the paper's ssync, over the wire). Only file systems that
	// implement PathSyncer — a HAC volume — answer it.
	opSync
	// opSearchStream is opSearch in streaming form: the server walks the cursor itself and returns every page as its
	// own response frame, the last one flagged final. N = page size,
	// Size = max pages (0 = all).
	opSearchStream
	// opManifest returns the served volume's content-addressed manifest
	// (encoded cas.Manifest in Data). Only volumes over a cas substrate
	// answer; others reply Unsupported, and manifest-diff sync then
	// falls back to full-content sync.
	opManifest
	// opBlobs fetches blob contents by hash: request Data is concatenated
	// 32-byte SHA-256 hashes, response Data is, per requested hash in
	// order, a u64 big-endian length followed by the content.
	opBlobs
)

// request is one marshalled operation.
type request struct {
	Op     opCode
	Tenant string // addressed volume; "" = the server's default
	Path   string
	Path2  string // rename destination / symlink target
	Data   []byte
	Flag   int
	Handle uint64
	Offset int64
	Whence int
	Size   int64
	N      int // read length
}

// response is one marshalled result.
type response struct {
	Err     *wireError
	Data    []byte
	Info    vfs.Info
	Entries []vfs.DirEntry
	Str     string
	Strs    []string // opSearch: one page of matching paths
	Handle  uint64
	N       int
	Off     int64 // seek result / opSearch next cursor
	EOF     bool
}

// wireError carries an error across the connection, preserving the vfs
// sentinel so errors.Is keeps working on the client side.
type wireError struct {
	Op   string
	Path string
	Kind string // sentinel name, or "" for plain errors
	Msg  string
}

// sentinel names ↔ errors.
var sentinelByName = map[string]error{
	"NotExist":      vfs.ErrNotExist,
	"Exist":         vfs.ErrExist,
	"NotDir":        vfs.ErrNotDir,
	"IsDir":         vfs.ErrIsDir,
	"NotEmpty":      vfs.ErrNotEmpty,
	"Invalid":       vfs.ErrInvalid,
	"Loop":          vfs.ErrLoop,
	"CrossMount":    vfs.ErrCrossMount,
	"Closed":        vfs.ErrClosed,
	"ReadOnly":      vfs.ErrReadOnly,
	"WriteOnly":     vfs.ErrWriteOnly,
	"Busy":          vfs.ErrBusy,
	"Unsupported":   vfs.ErrUnsupported,
	"QuotaExceeded": vfs.ErrQuotaExceeded,
	"Backpressure":  vfs.ErrBackpressure,
	"ShuttingDown":  vfs.ErrShuttingDown,
	"EOF":           errEOFSentinel,
}

// errEOFSentinel marks io.EOF on the wire (handled specially).
var errEOFSentinel = errors.New("EOF")

func sentinelName(err error) string {
	for name, sentinel := range sentinelByName {
		if errors.Is(err, sentinel) {
			return name
		}
	}
	return ""
}

// encodeErr converts an error for transmission.
func encodeErr(err error) *wireError {
	if err == nil {
		return nil
	}
	we := &wireError{Msg: err.Error(), Kind: sentinelName(err)}
	var pe *vfs.PathError
	if errors.As(err, &pe) {
		we.Op, we.Path = pe.Op, pe.Path
	}
	return we
}

// decodeErr reconstructs a client-side error.
func (we *wireError) decode() error {
	if we == nil {
		return nil
	}
	base := errors.New(we.Msg)
	if we.Kind != "" {
		if sentinel, ok := sentinelByName[we.Kind]; ok {
			base = sentinel
		}
	}
	if we.Op != "" {
		return &vfs.PathError{Op: we.Op, Path: we.Path, Err: base}
	}
	return base
}

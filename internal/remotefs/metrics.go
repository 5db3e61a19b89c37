package remotefs

import (
	"time"

	"hacfs/internal/obs"
)

// opNames maps protocol op codes to the label value used in the
// remotefs_rpc_* series.
var opNames = map[opCode]string{
	opMkdir:        "mkdir",
	opMkdirAll:     "mkdirall",
	opOpenFile:     "open",
	opReadFile:     "readfile",
	opWriteFile:    "writefile",
	opSymlink:      "symlink",
	opReadlink:     "readlink",
	opRemove:       "remove",
	opRemoveAll:    "removeall",
	opRename:       "rename",
	opStat:         "stat",
	opLstat:        "lstat",
	opReadDir:      "readdir",
	opFileRead:     "fread",
	opFileWrite:    "fwrite",
	opFileReadAt:   "freadat",
	opFileWriteAt:  "fwriteat",
	opFileSeek:     "fseek",
	opFileTruncate: "ftruncate",
	opFileStat:     "fstat",
	opFileClose:    "fclose",
	opPing:         "ping",
	opSearch:       "search",
	opSync:         "sync",
	opSearchStream: "searchstream",
	opManifest:     "manifest",
	opBlobs:        "blobs",
}

// rpcSpanNames and rfsSpanNames are the client- and server-side span
// names per op, built once so the per-request hot path doesn't
// re-concatenate them.
var rpcSpanNames, rfsSpanNames = func() (map[opCode]string, map[opCode]string) {
	rpc := make(map[opCode]string, len(opNames))
	rfs := make(map[opCode]string, len(opNames))
	for op, name := range opNames {
		rpc[op] = "rpc." + name
		rfs[op] = "rfs." + name
	}
	return rpc, rfs
}()

// rpcMetrics instruments one protocol op: call count, transport latency
// and transport-error count (server-side errors travel inside the
// response and are not counted here).
type rpcMetrics struct {
	calls   *obs.Counter   // remotefs_rpc_total{op=...}
	errors  *obs.Counter   // remotefs_rpc_errors_total{op=...}
	seconds *obs.Histogram // remotefs_rpc_seconds{op=...}
}

func (m rpcMetrics) done(start time.Time, err *error) {
	m.calls.Add(1)
	m.seconds.ObserveSince(start)
	if *err != nil {
		m.errors.Add(1)
	}
}

// clientMetrics is the client's handle bundle, resolved once at Dial
// (against obs.Default()) or by SetObserver.
type clientMetrics struct {
	ops map[opCode]rpcMetrics
}

func newClientMetrics(o *obs.Observer) clientMetrics {
	r := o.Registry()
	ops := make(map[opCode]rpcMetrics, len(opNames))
	for op, name := range opNames {
		ops[op] = rpcMetrics{
			calls:   r.Counter("remotefs_rpc_total", "op", name),
			errors:  r.Counter("remotefs_rpc_errors_total", "op", name),
			seconds: r.Histogram("remotefs_rpc_seconds", nil, "op", name),
		}
	}
	return clientMetrics{ops: ops}
}

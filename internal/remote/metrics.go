package remote

import (
	"time"

	"hacfs/internal/obs"
)

// rpcMetrics instruments one protocol method: call count, transport
// latency and error count.
type rpcMetrics struct {
	calls   *obs.Counter   // remote_rpc_total{method=...}
	errors  *obs.Counter   // remote_rpc_errors_total{method=...}
	seconds *obs.Histogram // remote_rpc_seconds{method=...}
}

// done records one finished call. Pass a pointer to the method's named
// error result and register with defer so the outcome is captured on
// every return path.
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
	ping, search, fetch rpcMetrics
}

func newClientMetrics(o *obs.Observer) clientMetrics {
	r := o.Registry()
	m := func(method string) rpcMetrics {
		return rpcMetrics{
			calls:   r.Counter("remote_rpc_total", "method", method),
			errors:  r.Counter("remote_rpc_errors_total", "method", method),
			seconds: r.Histogram("remote_rpc_seconds", nil, "method", method),
		}
	}
	return clientMetrics{ping: m("ping"), search: m("search"), fetch: m("fetch")}
}

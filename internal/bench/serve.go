package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs"
)

// ---------------------------------------------------------------------
// Multi-tenant serving — closed-loop load over the mux
// ---------------------------------------------------------------------

// ServeSpec configures the closed-loop load experiment: Clients
// simulated clients spread over Tenants tenants drive mixed
// read/search/sync traffic through Conns shared multiplexed TCP
// connections against a multi-tenant server.
type ServeSpec struct {
	Clients       int           // closed-loop client goroutines (default 1000)
	Tenants       int           // hosted volumes (default 4)
	Conns         int           // shared connections (default 8)
	Duration      time.Duration // measured window (default 5s)
	DocsPerTenant int           // corpus size per tenant volume (default 300)
	NetDelay      time.Duration // emulated network round-trip (default 2ms, <0 disables)
	Seed          int64
	Addr          string // external server address; "" = in-process
}

func (s ServeSpec) withDefaults() ServeSpec {
	if s.Clients <= 0 {
		s.Clients = 1000
	}
	if s.Tenants <= 0 {
		s.Tenants = 4
	}
	if s.Conns <= 0 {
		s.Conns = 8
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.DocsPerTenant <= 0 {
		s.DocsPerTenant = 300
	}
	if s.NetDelay == 0 {
		s.NetDelay = 2 * time.Millisecond
	}
	if s.NetDelay < 0 {
		s.NetDelay = 0
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// ServeTenantStats is one tenant's view of the run.
type ServeTenantStats struct {
	Tenant       string
	Ops          int64
	Errors       int64
	Backpressure int64
	P50          time.Duration
	P99          time.Duration
	P999         time.Duration
}

// ServeResult is the whole experiment, written to BENCH_serve.json.
type ServeResult struct {
	Clients       int
	TenantCount   int
	Conns         int
	DocsPerTenant int
	Duration      time.Duration
	NetDelay      time.Duration // emulated network round-trip

	Ops        int64
	Throughput float64 // ops per second
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	Tenants    []ServeTenantStats

	// FairnessP99Ratio is the worst per-tenant p99 over the best — 1.0
	// is perfectly fair scheduling.
	FairnessP99Ratio float64
}

// ServeLoad runs the experiment. With spec.Addr empty it boots an
// in-process multi-tenant server (tenants t0..tN-1, each volume
// seeded and indexed); otherwise it drives the server at Addr, which
// must host tenants under the same names.
func ServeLoad(spec ServeSpec) (*ServeResult, error) {
	spec = spec.withDefaults()

	addr := spec.Addr
	if addr == "" {
		var cleanup func()
		var err error
		addr, cleanup, err = bootServer(spec)
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	tenantNames := make([]string, spec.Tenants)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("t%d", i)
	}

	// Each tenant's known document set, for the read mix. External
	// servers are seeded by us so the paths are known there too.
	// Seeding goes straight to the server; only measured traffic pays
	// the emulated network latency.
	docs, err := seedOverWire(spec, addr, tenantNames)
	if err != nil {
		return nil, err
	}

	// Loopback has no meaningful round-trip time, so, like the I/O
	// benchmarks' emulated device latency, the load runs through a
	// proxy that delays every byte by half the configured RTT in each
	// direction (latency only: delivery is pipelined, bandwidth is
	// unconstrained).
	if spec.NetDelay > 0 {
		proxyAddr, stopProxy, err := startDelayProxy(addr, spec.NetDelay/2)
		if err != nil {
			return nil, err
		}
		defer stopProxy()
		addr = proxyAddr
	}

	res := &ServeResult{
		Clients:       spec.Clients,
		TenantCount:   spec.Tenants,
		Conns:         spec.Conns,
		DocsPerTenant: spec.DocsPerTenant,
		Duration:      spec.Duration,
		NetDelay:      spec.NetDelay,
	}
	runMux(spec, addr, tenantNames, docs, res)

	var worst, best time.Duration
	for _, t := range res.Tenants {
		if t.P99 > worst {
			worst = t.P99
		}
		if best == 0 || t.P99 < best {
			best = t.P99
		}
	}
	if best > 0 {
		res.FairnessP99Ratio = float64(worst) / float64(best)
	}
	return res, nil
}

// bootServer hosts spec.Tenants seeded volumes in-process and returns
// the listen address.
func bootServer(spec ServeSpec) (string, func(), error) {
	host := serve.NewHost(0, obs.NewObserver())
	for i := 0; i < spec.Tenants; i++ {
		hfs := hac.New(vfs.New(), hac.Options{Observer: obs.Discard()})
		if err := hfs.MkdirAll("/docs"); err != nil {
			return "", nil, err
		}
		cspec := corpus.Spec{Files: spec.DocsPerTenant, MeanWords: 60, Seed: spec.Seed + int64(i)}
		if _, err := corpus.Generate(hfs, "/docs", cspec); err != nil {
			return "", nil, err
		}
		if _, err := hfs.Reindex("/"); err != nil {
			return "", nil, err
		}
		if err := host.AddTenant(fmt.Sprintf("t%d", i), hfs, serve.Quota{}, ""); err != nil {
			return "", nil, err
		}
	}
	srv := remotefs.NewHostServer(host, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}

// seedOverWire makes sure every tenant has the bench's known read set,
// writing it through the wire (idempotent for the in-process server,
// required for an external one), and returns the per-tenant paths.
func seedOverWire(spec ServeSpec, addr string, tenantNames []string) (map[string][]string, error) {
	mux := remotefs.DialMux(addr)
	mux.SetTimeout(20 * time.Second)
	defer mux.Close()
	docs := make(map[string][]string, len(tenantNames))
	for _, name := range tenantNames {
		c := mux.Tenant(name)
		if err := c.MkdirAll("/bench"); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		paths := make([]string, 32)
		for i := range paths {
			paths[i] = fmt.Sprintf("/bench/doc%02d.txt", i)
			body := fmt.Sprintf("markermid benchdoc %s %02d payload", name, i)
			if err := c.WriteFile(paths[i], []byte(body)); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
		}
		docs[name] = paths
	}
	return docs, nil
}

// startDelayProxy listens locally and relays every connection to
// backend, delivering each byte oneWay later than it was read. Reads
// and delayed writes are decoupled through a queue, so the delay is
// pure latency — many requests can be in the pipe at once, which is
// exactly the property a multiplexed protocol exploits.
func startDelayProxy(backend string, oneWay time.Duration) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var conns sync.Map // *net.TCPConn → struct{}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				b, err := net.Dial("tcp", backend)
				if err != nil {
					c.Close()
					return
				}
				conns.Store(c, struct{}{})
				conns.Store(b, struct{}{})
				go relayDelayed(b, c, oneWay)
				go relayDelayed(c, b, oneWay)
			}(c)
		}
	}()
	stop := func() {
		l.Close()
		conns.Range(func(k, _ any) bool {
			k.(net.Conn).Close()
			return true
		})
	}
	return l.Addr().String(), stop, nil
}

// relayDelayed pumps src → dst, holding each chunk back until its due
// time. A reader goroutine keeps draining src while earlier chunks
// wait, so the delay never caps throughput.
func relayDelayed(dst, src net.Conn, oneWay time.Duration) {
	type chunk struct {
		b   []byte
		due time.Time
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- chunk{buf[:n], time.Now().Add(oneWay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.b); err != nil {
			break
		}
	}
	// Propagate EOF so the other side's reader unblocks; half-close
	// when possible to let in-flight responses drain the other way.
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		dst.Close()
	}
}

// runMux drives the closed-loop phase and records its aggregate in
// res. Clients are split evenly across tenants, and every tenant's
// clients spread over all spec.Conns shared connections through tenant
// views, as the mux lets any tenant ride any connection.
func runMux(spec ServeSpec, addr string, tenantNames []string, docs map[string][]string, res *ServeResult) {
	nT := len(tenantNames)
	views := make([][]*remotefs.MuxClient, spec.Conns) // [conn][tenant]
	for i := range views {
		m := remotefs.DialMux(addr)
		m.SetTimeout(30 * time.Second)
		m.SetObserver(obs.Discard())
		defer m.Close()
		for _, name := range tenantNames {
			views[i] = append(views[i], m.Tenant(name))
		}
	}

	type clientStats struct {
		lat          []time.Duration
		errs         int64
		backpressure int64
	}
	stats := make([]clientStats, spec.Clients)
	tenantOf := make([]int, spec.Clients)

	ctx := context.Background()
	var start atomic.Int64 // set right before the goroutines are released
	stop := make(chan struct{})
	begin := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < spec.Clients; g++ {
		ti := g % nT
		tenantOf[g] = ti
		conn := views[(g/nT)%spec.Conns][ti]
		paths := docs[tenantNames[ti]]
		wg.Add(1)
		go func(g int, c *remotefs.MuxClient, paths []string) {
			defer wg.Done()
			st := &stats[g]
			<-begin
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				t0 := time.Now()
				switch i % 10 {
				case 7, 8: // 20% search
					_, _, err = c.SearchPage(ctx, "markermid", "/", 0, 16)
				case 9: // 10% ssync
					err = c.SyncPath("/bench")
				default: // 70% read
					_, err = c.ReadFile(paths[i%len(paths)])
				}
				d := time.Since(t0)
				if err != nil {
					if errors.Is(err, vfs.ErrBackpressure) {
						st.backpressure++
						continue // retry later, as a real client would
					}
					st.errs++
					continue
				}
				st.lat = append(st.lat, d)
			}
		}(g, conn, paths)
	}

	start.Store(time.Now().UnixNano())
	close(begin)
	time.Sleep(spec.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Duration(time.Now().UnixNano() - start.Load())

	// Aggregate: global and per tenant.
	var all []time.Duration
	perTenant := make([][]time.Duration, nT)
	tErrs := make([]int64, nT)
	tBP := make([]int64, nT)
	for g := range stats {
		ti := tenantOf[g]
		all = append(all, stats[g].lat...)
		perTenant[ti] = append(perTenant[ti], stats[g].lat...)
		tErrs[ti] += stats[g].errs
		tBP[ti] += stats[g].backpressure
	}
	res.Ops = int64(len(all))
	res.Throughput = float64(len(all)) / elapsed.Seconds()
	res.P50 = percentile(all, 0.50)
	res.P99 = percentile(all, 0.99)
	res.P999 = percentile(all, 0.999)
	for ti, name := range tenantNames {
		res.Tenants = append(res.Tenants, ServeTenantStats{
			Tenant:       name,
			Ops:          int64(len(perTenant[ti])),
			Errors:       tErrs[ti],
			Backpressure: tBP[ti],
			P50:          percentile(perTenant[ti], 0.50),
			P99:          percentile(perTenant[ti], 0.99),
			P999:         percentile(perTenant[ti], 0.999),
		})
	}
	sort.Slice(res.Tenants, func(i, j int) bool { return res.Tenants[i].Tenant < res.Tenants[j].Tenant })
}

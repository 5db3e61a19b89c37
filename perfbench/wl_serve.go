package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"

	"hacfs/internal/andrew"
	"hacfs/internal/hac"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs/cas"
)

// The serve workload: hacvold's traffic. Two tenants on one shared
// content-addressed store are served by an in-process serve.Host and
// remotefs server on loopback; one stream per tenant drives it over a
// single shared mux connection. The probe then runs, per tenant, Andrew
// rounds over the mount and the operator's maintenance cycle on the
// served volume.
const (
	serveTenants = 2
	serveFiles   = 6000
	serveShared  = 1000 // files identical across tenants
	servePage    = 20
	serveRounds  = 10 // Andrew rounds per tenant in the probe
)

// A smaller tree than the andrew workload's: every file costs several
// round trips over the mount.
var serveAndrewSpec = andrew.Spec{Dirs: 10, FilesPerDir: 10, FileSize: 4096, MakeRounds: 4}

type tenantWL struct {
	name     string
	fs       *hac.FS
	c        *docSet
	cl       *remotefs.MuxClient
	ops      *opFS // the mix's Stat and WriteFile
	buildOps *opFS // Andrew rounds over the mount
	s        *stream
	q        []query
	qz       *rand.Zipf
	m        *maintenance
	written  map[string]bool // files written since the last Reindex
}

type serveWL struct {
	store   *cas.BlobStore
	host    *serve.Host
	vols    *volumes
	srv     *remotefs.Server
	served  chan struct{}
	mux     *remotefs.MuxClient
	tenants []*tenantWL
}

func setupServe(e *env) (instance, error) {
	sv := &serveWL{store: cas.NewStore(), served: make(chan struct{})}
	sv.host = serve.NewHost(0, e.obsv)
	lanes := map[string]*lane{}
	for i := 0; i < serveTenants; i++ {
		name := fmt.Sprintf("t%d", i)
		s := newStream(name, e.seed+int64(10+i), e.tr)
		lanes[name] = s.ln
		fs := hac.New(newSubFS(cas.New(sv.store), e.tr, s.ln), hac.Options{Observer: e.obsv})
		c, err := generate(fs, "/data", serveFiles, 100, e.seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", name, err)
		}
		if i > 0 {
			if err := shareFiles(sv.tenants[0], fs, c); err != nil {
				return nil, fmt.Errorf("shared files %s: %w", name, err)
			}
		}
		if err := andrew.GenerateSource(fs, "/src", serveAndrewSpec); err != nil {
			return nil, fmt.Errorf("andrew source %s: %w", name, err)
		}
		if _, err := fs.Reindex("/"); err != nil {
			return nil, fmt.Errorf("reindex %s: %w", name, err)
		}
		semdirs, err := makeTopicDirs(fs, c)
		if err != nil {
			return nil, fmt.Errorf("semantic dirs %s: %w", name, err)
		}
		ckpt := checkpointPath(e.dir, "serve-"+name)
		if err := sv.host.AddTenant(name, fs, serve.Quota{}, ckpt); err != nil {
			return nil, err
		}
		keys := queryKeys(c, 3000, semdirs)
		sv.tenants = append(sv.tenants, &tenantWL{
			name: name, fs: fs, c: c, s: s, q: keys, written: map[string]bool{},
			qz: rand.NewZipf(s.rng, 1.05, 1, uint64(len(keys)-1)),
			m: &maintenance{fs: fs, c: c, ckpt: ckpt, syncCls: clsNone,
				files: serveFiles + serveAndrewSpec.Dirs*serveAndrewSpec.FilesPerDir},
		})
	}
	sv.vols = newVolumes(sv.host, e.tr, lanes)
	sv.srv = remotefs.NewHostServer(sv.vols, nil)
	sv.srv.SetObserver(e.obsv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(sv.served)
		_ = sv.srv.Serve(l) // returns when close shuts the listener
	}()
	sv.mux = remotefs.DialMux(l.Addr().String())
	sv.mux.SetObserver(e.obsv)
	for _, t := range sv.tenants {
		t.cl = sv.mux.Tenant(t.name)
		t.ops = &opFS{inner: t.cl, s: t.s, layer: "rpc"}
		t.buildOps = &opFS{inner: t.cl, s: t.s, layer: "rpc", unclassed: true}
	}
	if err := sv.tenants[0].cl.Ping(); err != nil {
		sv.close()
		return nil, fmt.Errorf("ping: %w", err)
	}
	return sv, nil
}

// shareFiles copies the first tenant's first serveShared files over
// this tenant's, so the shared store holds them once, and moves their
// manifest entries across.
func shareFiles(from *tenantWL, fs *hac.FS, c *docSet) error {
	for j := 0; j < serveShared; j++ {
		src := from.c.docs[j]
		data, err := from.fs.ReadFile(src.path)
		if err != nil {
			return err
		}
		d := &c.docs[j]
		if err := fs.WriteFile(d.path, data); err != nil {
			return err
		}
		d.topics, d.markers, d.size = src.topics, src.markers, len(data)
	}
	c.tally()
	return nil
}

func (sv *serveWL) streams() ([]*stream, []func(*stream)) {
	var ss []*stream
	var bodies []func(*stream)
	for _, t := range sv.tenants {
		ss = append(ss, t.s)
		bodies = append(bodies, t.step)
	}
	return ss, bodies
}

func (sv *serveWL) foreground(s *stream) bool { return s.name != "oracle" }

// step is one request of the hacvold mix: ReadFile 55%, Stat 10%,
// SearchPage 15%, semantic ReadDir 5%, WriteFile 14%, SyncPath 1%. The
// shares are assumed, not taken from a trace (see README.md).
func (t *tenantWL) step(s *stream) {
	ctx := context.Background()
	switch r := s.rng.Intn(1000); {
	case r < 550:
		d := t.c.docs[s.rng.Intn(len(t.c.docs))]
		var n int
		if err := s.do(clsRead, "rpc", "ReadFile", func() error {
			data, err := t.cl.ReadFileContext(ctx, d.path)
			n = len(data)
			return err
		}); err == nil {
			s.check(n == d.size, "read %s: %d bytes, manifest says %d", d.path, n, d.size)
			s.observe("read %s %d", d.path, n)
		}
	case r < 650:
		d := t.c.docs[s.rng.Intn(len(t.c.docs))]
		if info, err := t.ops.Stat(d.path); err == nil {
			s.check(info.Size == int64(d.size), "stat %s: size %d, manifest says %d", d.path, info.Size, d.size)
		}
	case r < 800:
		k := t.q[t.qz.Uint64()]
		var n int
		if err := s.do(clsSearch, "rpc", "SearchPage", func() error {
			page, _, err := t.cl.SearchPage(ctx, k.q, k.scope, 0, servePage)
			n = len(page)
			return err
		}); err == nil && k.want >= 0 {
			s.check(n == min(k.want, servePage), "search %q: page of %d, manifest says %d matches", k.q, n, k.want)
			s.observe("search %q %d", k.q, n)
		}
	case r < 850:
		tp := s.rng.Intn(nTopics)
		var n int
		if err := s.do(clsSemdir, "rpc", "ReadDir", func() error {
			ents, err := t.cl.ReadDirContext(ctx, topicDir(tp))
			n = len(ents)
			return err
		}); err == nil {
			s.check(n == t.c.byTop[tp], "ls %s: %d entries, manifest says %d", topicDir(tp), n, t.c.byTop[tp])
			s.observe("ls %s %d", topicDir(tp), n)
		}
	case r < 990:
		i := s.rng.Intn(len(t.c.docs))
		d := &t.c.docs[i]
		next := *d
		next.size = 600 + s.rng.Intn(1200)
		if err := t.ops.WriteFile(d.path, t.c.content(s.rng, next)); err == nil {
			*d = next
			t.written[d.path] = true
			t.m.dirtied += int64(d.size)
		}
	default:
		tp := s.rng.Intn(nTopics)
		_ = s.do(clsSsync, "rpc", "SyncPath", func() error { return t.cl.SyncPathContext(ctx, topicDir(tp)) })
	}
}

// probe runs, tenant by tenant on the tenant's own stream, Andrew
// rounds over the mount and then maintenance cycles on the served
// volume; the first Reindex finds the files the window wrote.
func (sv *serveWL) probe() {
	for _, t := range sv.tenants {
		s := t.s
		for i := 0; i < serveRounds; i++ {
			runtime.GC() // as in the cba probe
			dst := fmt.Sprintf("/build%d", i%2)
			var res andrew.Result
			if err := s.do(clsAndrew, "bench", "andrew_round", func() (err error) {
				res, err = andrew.Run(t.buildOps, "/src", dst, serveAndrewSpec)
				return err
			}); err == nil {
				checkAndrew(s, res, serveAndrewSpec)
			}
			_ = t.buildOps.RemoveAll(dst)
		}
		for i := 0; i < probeCycles/serveTenants; i++ {
			t.m.cycle(s, len(t.written), true)
			t.written = map[string]bool{}
		}
	}
}

func (sv *serveWL) finish(chk *stream) {
	for _, t := range sv.tenants {
		if v := t.fs.CheckConsistency(); len(v) > 0 {
			chk.fail("%s CheckConsistency: %d violations, first %s", t.name, len(v), v[0])
		}
		t.m.reload(chk)
	}
}

func (sv *serveWL) layers(ms *metricSet) {
	wait := sortedCopy(sv.vols.admitWait)
	if len(wait) > 0 {
		ms.add(metric{Name: "serve.admit_wait_us.p50", Value: scale(percentile(wait, 50), "us"), Unit: "us", Better: "lower", Samples: len(wait), Percentile: 50})
		pt := tailPercentile(len(wait))
		ms.add(metric{Name: "serve.admit_wait_us.p99", Value: scale(percentile(wait, pt), "us"), Unit: "us", Better: "lower", Samples: len(wait), Percentile: pt})
	}
	if ex := sv.vols.execSamples(); len(ex) > 0 {
		ms.add(metric{Name: "serve.exec_us", Value: scale(percentile(sortedCopy(ex), 50), "us"), Unit: "us", Better: "lower", Samples: len(ex), Percentile: 50})
	}
	sv.tenants[0].m.layers(ms)
	casLayers(ms, sv.store)
}

func (sv *serveWL) close() {
	if sv.mux != nil {
		sv.mux.Close()
	}
	sv.srv.Close()
	<-sv.served
	for _, t := range sv.tenants {
		os.Remove(t.m.ckpt)
	}
}

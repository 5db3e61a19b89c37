// Command hacvold serves HAC volumes over the remote file-system
// protocol, so other machines can mount them syntactically (hacsh:
// mount <dir> <addr>) and browse their semantic directories — the
// paper's §3.2 coworker-sharing scenario across a network.
//
// Usage:
//
//	hacvold [-addr host:port] [-volume file.hac] [-save file.hac -save-every 30s] [-demo -files N]
//	hacvold -tenant alice=alice.hac -tenant bob -save-dir /var/hac \
//	        [-quota-bytes N] [-quota-docs N] [-quota-inflight N]
//
// Without -tenant flags one volume is served to every client. Each
// -tenant flag adds an isolated volume under that name (loaded from the
// given image, or fresh); clients address a tenant by name in each
// request, and a request that names none reaches the first tenant.
// Quota flags bound every tenant; -save-dir checkpoints each tenant to
// <dir>/<name>.hac.
//
// Connections speak the multiplexed binary framing of internal/wire; a
// connection that does not open with its hello is closed.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops
// accepting connections, drains in-flight requests (new ones fail with
// a typed shutting-down error), writes a final atomic checkpoint of
// every volume, then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hacfs/internal/corpus"
	"hacfs/internal/hac"
	"hacfs/internal/obs"
	"hacfs/internal/remotefs"
	"hacfs/internal/serve"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// tenantFlags collects repeated -tenant name[=volume.hac] flags.
type tenantFlags []struct{ name, volume string }

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*t)) }

func (t *tenantFlags) Set(v string) error {
	name, vol, _ := strings.Cut(v, "=")
	if name == "" {
		return fmt.Errorf("empty tenant name")
	}
	*t = append(*t, struct{ name, volume string }{name, vol})
	return nil
}

var (
	addr          = flag.String("addr", "127.0.0.1:7678", "listen address")
	debugAddr     = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/spans, /debug/slow and /debug/trace on this address")
	volume        = flag.String("volume", "", "serve a volume saved by hacsh's save command")
	savePath      = flag.String("save", "", "checkpoint the volume to this file (atomic replace)")
	saveDir       = flag.String("save-dir", "", "checkpoint each tenant to <dir>/<name>.hac")
	saveEvery     = flag.Duration("save-every", 30*time.Second, "interval between checkpoints when -save/-save-dir is set")
	mergeEvery    = flag.Duration("merge-every", 15*time.Second, "background segment-merge check interval (0 disables the merger)")
	drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight requests")
	workers       = flag.Int("workers", 0, "execution slots shared fairly across tenants (0 = CPU-scaled)")
	quotaBytes    = flag.Int64("quota-bytes", 0, "per-tenant byte quota (0 = unlimited)")
	quotaDocs     = flag.Int64("quota-docs", 0, "per-tenant document quota (0 = unlimited)")
	quotaInflight = flag.Int64("quota-inflight", 0, "per-tenant in-flight request limit (0 = unlimited)")
	slowThresh    = flag.Duration("slow-threshold", obs.DefSlowThreshold, "record ops slower than this in /debug/slow (0 disables)")
	sloLatency    = flag.Duration("slo-latency", 0, "per-tenant latency objective; enables SLO burn-rate gauges (0 = no SLO)")
	sloTarget     = flag.Float64("slo-target", 0.99, "fraction of requests that should meet -slo-latency")
	demo          = flag.Bool("demo", false, "serve a volume seeded with a demo corpus")
	nfiles        = flag.Int("files", 200, "demo corpus size")
	seedVal       = flag.Int64("seed", 42, "demo corpus seed")
	useCAS        = flag.Bool("cas", true, "back volumes with one process-wide content-addressed blob store: identical content across tenants is stored once, quotas charge unique bytes, v4 images save O(changed content)")
)

// blobStore is the process-wide content-addressed store every tenant
// volume shares when -cas is on (nil otherwise).
var blobStore *cas.BlobStore

var tenants tenantFlags

func main() {
	flag.Var(&tenants, "tenant", "serve an isolated volume as name[=volume.hac]; repeatable")
	flag.Parse()
	logger := log.New(os.Stderr, "hacvold: ", log.LstdFlags)

	quota := serve.Quota{MaxBytes: *quotaBytes, MaxDocs: *quotaDocs, MaxInflight: *quotaInflight}
	host := serve.NewHost(*workers, obs.Default())
	obs.Default().Slow().SetThreshold(*slowThresh)
	if *useCAS {
		blobStore = cas.NewStore()
		blobStore.PublishMetrics(obs.Default().Registry())
	}

	// Resolve the tenant set: explicit -tenant flags, or one default
	// volume from the legacy flags.
	if len(tenants) == 0 {
		tenants = tenantFlags{{name: "default", volume: *volume}}
	} else if *volume != "" {
		logger.Fatalf("-volume and -tenant are mutually exclusive; use -tenant name=%s", *volume)
	}

	var mergeStops []func()
	for i, tc := range tenants {
		fs, err := openVolume(logger, tc.volume)
		if err != nil {
			logger.Fatalf("tenant %s: %v", tc.name, err)
		}
		save := ""
		switch {
		case *saveDir != "":
			save = filepath.Join(*saveDir, tc.name+".hac")
		case *savePath != "" && len(tenants) == 1:
			save = *savePath
		}
		if err := host.AddTenant(tc.name, fs, quota, save); err != nil {
			logger.Fatal(err)
		}
		if *sloLatency > 0 {
			if err := host.SetSLO(tc.name, serve.SLO{Latency: *sloLatency, Target: *sloTarget}); err != nil {
				logger.Fatal(err)
			}
		}
		if i == 0 {
			host.SetDefault(tc.name)
		}
		if *mergeEvery > 0 {
			mergeStops = append(mergeStops, fs.Index().StartMerger(*mergeEvery))
		}
		s := fs.Stats()
		logger.Printf("tenant %s: %d directories, %d semantic%s", tc.name,
			s.Directories, s.SemanticDirs, checkpointNote(save))
	}
	defer func() {
		for _, stop := range mergeStops {
			stop()
		}
	}()

	if *saveEvery > 0 && (*saveDir != "" || *savePath != "") {
		go func() {
			for range time.Tick(*saveEvery) {
				if err := host.Checkpoint(); err != nil {
					logger.Printf("checkpoint failed: %v", err)
					continue
				}
				logger.Printf("checkpointed %d volume(s)", len(host.Tenants()))
			}
		}()
	}

	if *debugAddr != "" {
		dl, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			logger.Fatalf("debug listener: %v", err)
		}
		logger.Printf("debug endpoints on http://%s/metrics", dl.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	srv := remotefs.NewHostServer(host, logger)
	logger.Printf("serving %d tenant(s) on %s", len(host.Tenants()), *addr)

	// Graceful shutdown: refuse new connections, drain in-flight
	// requests, take a final checkpoint, exit.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	shuttingDown := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigCh
		logger.Printf("%s: draining (up to %s)...", sig, *drainTimeout)
		close(shuttingDown)
		srv.CloseListener()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := host.Drain(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
		if err := host.Checkpoint(); err != nil {
			logger.Printf("final checkpoint failed: %v", err)
		} else if *saveDir != "" || *savePath != "" {
			logger.Printf("final checkpoint written")
		}
		srv.Close()
		logger.Printf("bye")
	}()

	err = srv.Serve(l)
	select {
	case <-shuttingDown:
		<-done // wait out the drain + final checkpoint
	default:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	}
}

// openVolume loads a saved image, or builds a fresh (possibly
// demo-seeded) volume when path is empty. With -cas every volume —
// loaded or fresh — shares the process-wide blob store, so identical
// content across tenants occupies memory once.
func openVolume(logger *log.Logger, path string) (*hac.FS, error) {
	if path != "" {
		fs, err := hac.LoadVolumeFile(path, hac.Options{BlobStore: blobStore})
		if err != nil {
			return nil, fmt.Errorf("loading volume: %w", err)
		}
		logger.Printf("loaded volume from %s", path)
		return fs, nil
	}
	var substrate vfs.FileSystem = vfs.New()
	if blobStore != nil {
		substrate = cas.New(blobStore)
	}
	fs := hac.New(substrate, hac.Options{})
	if *demo {
		if err := fs.MkdirAll("/docs"); err != nil {
			return nil, err
		}
		if _, err := corpus.Generate(fs, "/docs", corpus.Spec{Files: *nfiles, Seed: *seedVal}); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
		if _, err := fs.Reindex("/"); err != nil {
			return nil, fmt.Errorf("indexing: %w", err)
		}
		logger.Printf("seeded %d demo documents under /docs", *nfiles)
	}
	return fs, nil
}

func checkpointNote(save string) string {
	if save == "" {
		return ""
	}
	return ", checkpointing to " + save
}

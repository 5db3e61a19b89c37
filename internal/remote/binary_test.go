package remote

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/wire"
)

// startBinClient connects a client to a fresh test server.
func startBinClient(t *testing.T) *BinClient {
	t.Helper()
	bc, _, _ := startServer(t)
	return bc
}

func TestBinPingSearchFetch(t *testing.T) {
	bc := startBinClient(t)
	if err := bc.Ping(); err != nil {
		t.Fatal(err)
	}
	got, err := bc.Search("fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"/papers/crime-report.ps", "/papers/fp-matching.ps", "/papers/fp-sensors.ps"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("search = %v, want %v", got, want)
	}
	data, err := bc.Fetch("/papers/iris.ps")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "iris recognition") {
		t.Fatalf("fetch = %q", data)
	}
	if _, err := bc.Search("fingerprint AND ("); err == nil {
		t.Fatal("malformed query did not error")
	}
	if _, err := bc.Fetch("/no/such/file"); err == nil {
		t.Fatal("missing fetch did not error")
	}
}

// TestBinStreamedPages forces a tiny page size and checks the client
// reassembles the multi-frame stream, and that explicit paging through
// the cursor sees every result exactly once.
func TestBinStreamedPages(t *testing.T) {
	bc := startBinClient(t)
	ctx := context.Background()

	var all []string
	err := bc.searchPages(ctx, "fingerprint", "", 0, 1, 0, func(paths []string, _, _ uint64) {
		all = append(all, paths...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("streamed %d paths, want 3: %v", len(all), all)
	}

	// Page-at-a-time through the cursor.
	var paged []string
	var after uint64
	for {
		paths, next, _, err := bc.SearchPageUnder(ctx, "fingerprint", "", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, paths...)
		if next == 0 {
			break
		}
		after = next
	}
	sort.Strings(all)
	sort.Strings(paged)
	if !reflect.DeepEqual(all, paged) {
		t.Fatalf("paged %v != streamed %v", paged, all)
	}
}

// TestBinManyInFlight issues many concurrent requests over ONE client
// (one connection) and checks every reply routes to its caller.
func TestBinManyInFlight(t *testing.T) {
	bc := startBinClient(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				paths, err := bc.SearchContext(ctx, "fingerprint")
				if err == nil && len(paths) != 3 {
					errs <- io.ErrUnexpectedEOF
					return
				}
				errs <- err
			} else {
				data, err := bc.FetchContext(ctx, "/papers/iris.ps")
				if err == nil && !strings.Contains(string(data), "iris") {
					errs <- io.ErrUnexpectedEOF
					return
				}
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBinVersionRejected checks the versioned-error path: a client
// with an unsupported framing version receives an error frame, not a
// hang or a crash.
func TestBinVersionRejected(t *testing.T) {
	bc := startBinClient(t)
	conn, err := net.DialTimeout("tcp", bc.mux.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHello(conn, 42); err != nil {
		t.Fatal(err)
	}
	ver, err := wire.ReadHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ver != wire.Version {
		t.Fatalf("server hello version = %d, want %d", ver, wire.Version)
	}
	f, err := wire.ReadFrame(conn, maxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != fErr || !strings.Contains(string(f.Payload), "unsupported protocol version") {
		t.Fatalf("reply = type %d %q, want versioned error", f.Type, f.Payload)
	}
}

// FuzzDecodeFrame drives the server-side binary decode path with
// arbitrary bytes: framing, then the per-type payload decoders. It
// must never panic, and every accepted field must respect its bound.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add(func() []byte {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, wire.Frame{Type: fSearch2, ID: 7, Payload: appendSearchReq2(nil, "a AND b", "/s", 9, 4, 0)})
		return buf.Bytes()
	}())
	f.Add(func() []byte {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, wire.Frame{Type: fPage2, Flags: wire.FlagFinal, ID: 3, Payload: appendPage2(nil, 5, 11, []string{"/a", "/b"})})
		return buf.Bytes()
	}())
	// Huge declared frame length: must be rejected, not allocated.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := wire.ReadFrame(r, maxFramePayload)
			if err != nil {
				return
			}
			switch fr.Type {
			case fSearch2:
				q, scope, _, _, _, err := decodeSearchReq2(fr.Payload)
				if err == nil && (len(q) > maxLine || len(scope) > maxLine) {
					t.Fatalf("accepted query of %d bytes, scope of %d", len(q), len(scope))
				}
			case fPage2:
				paths, _, _, err := decodePage2(fr.Payload)
				if err == nil {
					for _, p := range paths {
						if len(p) > maxLine {
							t.Fatalf("accepted path of %d bytes", len(p))
						}
					}
				}
			case fFetch, fData, fErr, fPing, fPong:
				d := wire.NewDec(fr.Payload)
				_ = d.String(maxLine)
			}
		}
	})
}

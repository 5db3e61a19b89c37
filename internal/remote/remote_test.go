package remote

import (
	"context"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
)

// startServer brings up a server over a small corpus and returns a
// connected client and the server's accepted connections.
func startServer(t *testing.T) (*BinClient, *Server, *trackingListener) {
	t.Helper()
	fsys := vfs.New()
	docs := map[string]string{
		"/papers/fp-matching.ps":  "fingerprint matching algorithms survey",
		"/papers/fp-sensors.ps":   "fingerprint sensor hardware design",
		"/papers/iris.ps":         "iris recognition methods",
		"/papers/crime-report.ps": "fingerprint evidence in murder case",
	}
	for p, content := range docs {
		if err := fsys.MkdirAll(vfs.Dir(p)); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	backend, err := NewIndexBackend(fsys, "/")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: l}
	go srv.Serve(tl)
	t.Cleanup(srv.Close)

	c := DialBin("diglib", l.Addr().String())
	c.SetTimeout(5 * time.Second)
	t.Cleanup(func() { c.Close() })
	return c, srv, tl
}

// trackingListener records the connections it accepts, so a test can
// kill them server-side.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

func TestPing(t *testing.T) {
	c, _, _ := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSearch(t *testing.T) {
	c, _, _ := startServer(t)
	got, err := c.Search("fingerprint AND NOT murder")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/papers/fp-matching.ps", "/papers/fp-sensors.ps"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	// Empty result.
	got, err = c.Search("nonexistentterm")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty Search = %v, %v", got, err)
	}
	// Empty query.
	got, err = c.Search("")
	if err != nil || len(got) != 0 {
		t.Fatalf("blank Search = %v, %v", got, err)
	}
}

func TestSearchBadQuery(t *testing.T) {
	c, _, _ := startServer(t)
	_, err := c.Search("((broken")
	if err == nil || !strings.Contains(err.Error(), "server:") {
		t.Fatalf("bad query err = %v", err)
	}
	// Connection still usable after a server-side error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestSearchPage(t *testing.T) {
	c, _, _ := startServer(t)
	// Walk the whole result in pages of 1 and compare against the
	// unpaged answer.
	want, err := c.Search("fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("unpaged Search = %v", want)
	}
	var got []string
	var after uint64
	ctx := context.Background()
	for pages := 0; ; pages++ {
		if pages > len(want) {
			t.Fatalf("cursor did not terminate: got %v", got)
		}
		page, next, _, err := c.SearchPageUnder(ctx, "fingerprint", "", after, 1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if next == 0 {
			break
		}
		after = next
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged Search = %v, want %v", got, want)
	}

	// Unlimited page = everything at once, terminated.
	all, next, _, err := c.SearchPageUnder(ctx, "fingerprint", "", 0, 0)
	if err != nil || next != 0 {
		t.Fatalf("unlimited page: %v, next=%d", err, next)
	}
	sort.Strings(all)
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("unlimited page = %v, want %v", all, want)
	}

	// Server-side errors come back typed as server errors.
	if _, _, _, err := c.SearchPageUnder(ctx, "((broken", "", 0, 1); err == nil ||
		!strings.Contains(err.Error(), "server:") {
		t.Fatalf("bad query err = %v", err)
	}
}

func TestFetch(t *testing.T) {
	c, _, _ := startServer(t)
	data, err := c.Fetch("/papers/iris.ps")
	if err != nil || string(data) != "iris recognition methods" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if _, err := c.Fetch("/papers/none.ps"); err == nil {
		t.Fatal("Fetch of missing file succeeded")
	}
}

func TestQueryWithSpaces(t *testing.T) {
	c, _, _ := startServer(t)
	// Queries travel verbatim, whitespace included.
	got, err := c.Search("  fingerprint   AND   sensor ")
	if err != nil || len(got) != 1 {
		t.Fatalf("Search with spaces = %v, %v", got, err)
	}
}

func TestReconnectAfterServerSideClose(t *testing.T) {
	c, _, tl := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection server-side; the next request finds
	// the connection dead and is re-sent on a fresh one.
	tl.closeConns()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
}

func TestDirRefMatchesNothingRemotely(t *testing.T) {
	c, _, _ := startServer(t)
	got, err := c.Search("fingerprint AND dir:#42")
	if err != nil || len(got) != 0 {
		t.Fatalf("dir-ref Search = %v, %v", got, err)
	}
}

func TestClientIsNamespace(t *testing.T) {
	var _ hac.ContextNamespace = (*BinClient)(nil)
}

// End-to-end: mount the remote server into a HAC volume and build a
// semantic directory from it (the §3 scenario).
func TestSemanticMountOverNetwork(t *testing.T) {
	c, _, _ := startServer(t)
	fs := hac.New(vfs.New(), hac.Options{})
	if err := fs.MkdirAll("/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SemanticMount("/lib", c); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkSemDir("/fp", "fingerprint AND NOT murder"); err != nil {
		t.Fatal(err)
	}
	targets, err := fs.LinkTargets("/fp")
	if err != nil || len(targets) != 2 {
		t.Fatalf("targets = %v, %v", targets, err)
	}
	// sact across the network.
	entries, _ := fs.ReadDir("/fp")
	data, err := fs.Extract(vfs.Join("/fp", entries[0].Name))
	if err != nil || !strings.Contains(string(data), "fingerprint") {
		t.Fatalf("Extract = %q, %v", data, err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	backend, err := NewIndexBackend(vfs.New(), "/")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(backend, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

package hac

// Memoized semantic-directory scopes (providedScopeLocalLocked). The
// memo must equal a fresh computation after any sequence of HAC
// operations; these tests compare the two after every step, check the
// one mutation that touches neither gen nor a link set (a create of a
// new name inside a semantic directory), and run the memo under
// concurrent Search, SyncAll, Reindex and background merges.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hacfs/internal/obs"
	"hacfs/internal/vfs"
)

// scopeMemoMismatches resolves every semantic directory's scope through
// the memo and afresh against one snapshot and describes each
// difference. The memoized call also fills the memo for the next step.
func scopeMemoMismatches(fs *FS) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	snap := fs.ix.Snapshot()
	var out []string
	for uid, ds := range fs.dirs {
		if !ds.semantic {
			continue
		}
		p, ok := fs.pathOfLocked(uid)
		if !ok {
			continue
		}
		got := fs.providedScopeLocalLocked(snap, p)
		want := fs.freshScopeLocked(snap, p)
		if !got.Equal(want) {
			out = append(out, fmt.Sprintf("%s: memo %v, fresh %v", p, snap.Paths(got), snap.Paths(want)))
		}
	}
	sort.Strings(out)
	return out
}

// memoViolations returns CheckConsistency's I9 (memo) reports.
func memoViolations(fs *FS) []string {
	var out []string
	for _, p := range fs.CheckConsistency() {
		if strings.Contains(p, "I9") {
			out = append(out, p)
		}
	}
	return out
}

// TestScopeMemoMatchesFreshRandomized drives a random mix of the
// operations that change a semantic directory's scope — creates and
// rewrites inside semantic directories, removals and renames into and
// out of them, symlink chains across two of them, Reindex, ForceMerge,
// smkdir and srmdir — and compares memo and fresh scope after each.
func TestScopeMemoMatchesFreshRandomized(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runScopeMemoModel(t, seed, 300)
		})
	}
}

func runScopeMemoModel(t *testing.T, seed int64, steps int) {
	o := obs.NewObserver()
	fs := New(vfs.New(), Options{Observer: o, Parallelism: 1})
	fs.ix.SetSealThreshold(16) // several segments, so merges renumber IDs
	rng := rand.New(rand.NewSource(seed))
	terms := []string{"apple", "pear", "plum"}
	content := func() string {
		return terms[rng.Intn(len(terms))] + " " + terms[rng.Intn(len(terms))] + " filler"
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/docs/sub"))
	for i := 0; i < 30; i++ {
		dir := "/docs"
		if i%3 == 0 {
			dir = "/docs/sub"
		}
		must(fs.WriteFile(fmt.Sprintf("%s/f%02d.txt", dir, i), []byte(content())))
	}
	_, err := fs.Reindex("/")
	must(err)
	must(fs.SemDir("/s1", "apple"))
	must(fs.SemDir("/s2", "pear"))
	must(fs.SemDir("/s1/n", "plum"))

	files := func() []string {
		var out []string
		vfs.Walk(fs, "/", func(p string, info vfs.Info) error {
			if info.Type == vfs.TypeFile {
				out = append(out, p)
			}
			return nil
		})
		return out
	}
	entries := func(dir string, typ vfs.NodeType) []string {
		es, _ := fs.ReadDir(dir)
		var out []string
		for _, e := range es {
			if e.Type == typ {
				out = append(out, vfs.Join(dir, e.Name))
			}
		}
		return out
	}
	pick := func(xs []string) (string, bool) {
		if len(xs) == 0 {
			return "", false
		}
		return xs[rng.Intn(len(xs))], true
	}
	semDirs := []string{"/s1", "/s2", "/s1/n"}
	scratch := false
	seq := 0
	var gone []string // regular files removed from semantic directories

	for step := 0; step < steps; step++ {
		var op string
		// Errors are part of the model (a rename onto a directory, a
		// removal that raced a link commit); only the memo is judged.
		switch k := rng.Intn(13); k {
		case 0: // create a new name inside a semantic directory
			// Half the time re-create the last name removed from a
			// semantic directory, which may still be indexed.
			p := ""
			if len(gone) > 0 && rng.Intn(2) == 0 {
				p = gone[len(gone)-1]
			} else {
				seq++
				d, _ := pick(semDirs)
				p = fmt.Sprintf("%s/new%d.txt", d, seq)
			}
			op = "create " + p
			fs.WriteFile(p, []byte(content()))
		case 1: // rewrite an existing file
			if p, ok := pick(files()); ok {
				op = "rewrite " + p
				fs.WriteFile(p, []byte(content()))
			}
		case 2: // remove a regular file, half the time in a semantic dir
			d, _ := pick(semDirs)
			in := entries(d, vfs.TypeFile)
			if rng.Intn(2) == 0 || len(in) == 0 {
				in = files()
			}
			if p, ok := pick(in); ok {
				op = "remove " + p
				if fs.Remove(p) == nil && strings.HasPrefix(p, "/s") {
					gone = append(gone, p)
				}
			}
		case 3: // remove a link from a semantic directory
			d, _ := pick(semDirs)
			if p, ok := pick(entries(d, vfs.TypeSymlink)); ok {
				op = "unlink " + p
				fs.Remove(p)
			}
		case 4: // move a regular file into a semantic directory
			if p, ok := pick(files()); ok {
				d, _ := pick(semDirs)
				seq++
				dst := fmt.Sprintf("%s/in%d.txt", d, seq)
				op = "rename " + p + " " + dst
				fs.Rename(p, dst)
			}
		case 5: // move a regular file out of a semantic directory
			d, _ := pick(semDirs)
			if p, ok := pick(entries(d, vfs.TypeFile)); ok {
				seq++
				dst := fmt.Sprintf("/docs/out%d.txt", seq)
				op = "rename " + p + " " + dst
				fs.Rename(p, dst)
			}
		case 6: // move a link between /s1 and /s2, either way
			from, to := "/s1", "/s2"
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			if p, ok := pick(entries(from, vfs.TypeSymlink)); ok {
				seq++
				dst := fmt.Sprintf("%s/mv%d", to, seq)
				op = "rename " + p + " " + dst
				fs.Rename(p, dst)
			}
		case 7: // a chain: a link in /s2 to a link in /s1 or /s1/n
			from := "/s1"
			if rng.Intn(2) == 0 {
				from = "/s1/n"
			}
			if p, ok := pick(entries(from, vfs.TypeSymlink)); ok {
				seq++
				dst := fmt.Sprintf("/s2/chain%d", seq)
				op = "symlink " + p + " " + dst
				fs.Symlink(p, dst)
			}
		case 8:
			op = "reindex"
			fs.Reindex("/")
		case 9:
			op = "forcemerge"
			fs.ix.ForceMerge()
		case 10:
			op = "syncall"
			fs.SyncAll()
		case 11: // smkdir / srmdir of a scratch semantic dir under /s2
			if scratch {
				op = "srmdir /s2/x"
				if fs.RemoveAll("/s2/x") == nil {
					scratch = false
					semDirs = semDirs[:3]
				}
			} else {
				op = "smkdir /s2/x"
				if fs.SemDir("/s2/x", terms[rng.Intn(len(terms))]) == nil {
					scratch = true
					semDirs = append(semDirs, "/s2/x")
				}
			}
		case 12: // a user link in /s1 to a corpus file
			if p, ok := pick(files()); ok && !strings.HasPrefix(p, "/s") {
				seq++
				dst := fmt.Sprintf("/s1/perm%d", seq)
				op = "symlink " + p + " " + dst
				fs.Symlink(p, dst)
			}
		}
		if bad := scopeMemoMismatches(fs); len(bad) > 0 {
			t.Fatalf("step %d (%s): memoized scope differs from fresh:\n%s", step, op, strings.Join(bad, "\n"))
		}
		if bad := memoViolations(fs); len(bad) > 0 {
			t.Fatalf("step %d (%s): %v", step, op, bad)
		}
	}
	hits := o.Registry().Counter("hac_scope_memo_hits_total").Value()
	misses := o.Registry().Counter("hac_scope_memo_misses_total").Value()
	if hits == 0 || misses == 0 {
		t.Fatalf("memo hits %d, misses %d: both paths must be exercised", hits, misses)
	}
}

// TestScopeMemoCreateNewNameInvalidates pins the one scope change that
// moves neither gen nor a link set: a path removed from a semantic
// directory but still indexed (Reindex is lazy) comes back when a file
// of that name is created again. Both the memo and the search result
// cache must see it.
func TestScopeMemoCreateNewNameInvalidates(t *testing.T) {
	fs := New(vfs.New(), Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/docs"))
	must(fs.WriteFile("/docs/a.txt", []byte("kiwi one")))
	must(fs.SemDir("/s", "kiwi"))
	// Not matching /s's own query, so /s holds no link to it.
	must(fs.WriteFile("/s/own.txt", []byte("lime own")))
	_, err := fs.Reindex("/")
	must(err)
	must(fs.Remove("/s/own.txt")) // still in the index until the next Reindex

	search := func() []string {
		t.Helper()
		res, err := fs.Search(context.Background(), "kiwi OR lime", WithScope("/s"))
		if err != nil {
			t.Fatal(err)
		}
		out := res.All()
		sort.Strings(out)
		return out
	}
	if got := strings.Join(search(), ","); got != "/docs/a.txt" {
		t.Fatalf("before create: %s", got)
	}
	if bad := scopeMemoMismatches(fs); len(bad) > 0 {
		t.Fatal(bad)
	}
	must(fs.WriteFile("/s/own.txt", []byte("lime again")))
	if bad := scopeMemoMismatches(fs); len(bad) > 0 {
		t.Fatalf("after create: %v", bad)
	}
	if got := strings.Join(search(), ","); got != "/docs/a.txt,/s/own.txt" {
		t.Fatalf("after create: search scoped to /s = %s", got)
	}

	// Rewriting the existing name keeps the memo.
	fs.mu.RLock()
	ds, _ := fs.stateAtLocked("/s")
	fs.mu.RUnlock()
	before := ds.scope.Load()
	if before == nil {
		t.Fatal("no memo after a scoped search")
	}
	must(fs.WriteFile("/s/own.txt", []byte("lime edited")))
	search()
	if after := ds.scope.Load(); after != before {
		t.Fatal("rewriting an existing file dropped the memo")
	}
}

// TestScopeMemoConcurrent runs Search (semantic scopes and dir:
// references), SyncAll, Reindex, the background merger and a writer at
// once. Under -race this checks the memo's publication; afterwards the
// memo must agree with a fresh computation and the audit must be clean.
func TestScopeMemoConcurrent(t *testing.T) {
	fs := New(vfs.New(), Options{Parallelism: 2})
	fs.ix.SetSealThreshold(32)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/docs"))
	terms := []string{"apple", "pear", "plum"}
	for i := 0; i < 60; i++ {
		must(fs.WriteFile(fmt.Sprintf("/docs/f%02d.txt", i), []byte(terms[i%3]+" "+terms[(i/3)%3])))
	}
	_, err := fs.Reindex("/")
	must(err)
	must(fs.SemDir("/s1", "apple"))
	must(fs.SemDir("/s2", "pear"))
	must(fs.SemDir("/s1/n", "plum"))

	stopMerger := fs.ix.StartMerger(time.Millisecond)
	var wg sync.WaitGroup
	done := make(chan struct{})
	loop := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	queries := []struct{ q, scope string }{
		{"pear", "/s1"}, {"apple", "/s2"}, {"plum OR pear", "/s1/n"}, {"dir:/s1 AND pear", "/"},
	}
	for r := 0; r < 2; r++ {
		loop(func(i int) {
			q := queries[(i+r)%len(queries)]
			if _, err := fs.Search(context.Background(), q.q, WithScope(q.scope)); err != nil {
				report(fmt.Errorf("search %q in %s: %w", q.q, q.scope, err))
			}
		})
	}
	loop(func(int) { fs.SyncAll() })
	loop(func(int) { fs.Reindex("/") })
	loop(func(i int) {
		p := fmt.Sprintf("/s%d/w%d.txt", i%2+1, i%4)
		if i%3 == 2 {
			fs.Remove(p)
		} else {
			fs.WriteFile(p, []byte(terms[i%3]))
		}
		if bad := memoViolations(fs); len(bad) > 0 {
			report(fmt.Errorf("audit during churn: %v", bad))
		}
	})
	time.Sleep(300 * time.Millisecond)
	close(done)
	wg.Wait()
	stopMerger()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	_, err = fs.Reindex("/")
	must(err)
	if bad := scopeMemoMismatches(fs); len(bad) > 0 {
		t.Fatalf("memo differs from fresh after the run: %v", bad)
	}
	if bad := fs.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("inconsistent after the run: %v", bad)
	}
}

package index

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hacfs/internal/vfs"
)

// TestSnapshotStableIDsAcrossMerge pins the central DocID contract: a
// snapshot is taken, a compaction is forced underneath it, and every ID
// issued before the merge still resolves — through the forward tables
// on the index, and through the provenance chains on the snapshot — to
// the same document in both directions.
func TestSnapshotStableIDsAcrossMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(4)
	const n = 24
	ids := make(map[string]DocID, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d/f%02d.txt", i)
		ix.Add(p, []byte(fmt.Sprintf("common unique%02d", i)))
		id, ok := ix.IDOf(p)
		if !ok {
			t.Fatalf("IDOf(%s) missing after Add", p)
		}
		ids[p] = id
	}
	snap := ix.Snapshot()

	// Delete a third of the documents, then compact everything.
	removed := make(map[string]bool)
	for i := 0; i < n; i += 3 {
		p := fmt.Sprintf("/d/f%02d.txt", i)
		if !ix.Remove(p) {
			t.Fatalf("Remove(%s) found nothing", p)
		}
		removed[p] = true
	}
	ix.ForceMerge()

	for p, id := range ids {
		got, ok := ix.PathOf(id)
		if removed[p] {
			if ok {
				t.Fatalf("%s was removed but PathOf(%#x) = %q", p, id, got)
			}
			continue
		}
		if !ok || got != p {
			t.Fatalf("PathOf(%#x) = %q, %v; want %q", id, got, ok, p)
		}
		// The pinned snapshot resolves both directions too: the ID it
		// issued maps to the path, and the path maps back to the same
		// pre-merge ID even though byPath now holds the merged one.
		if sp, ok := snap.PathOf(id); !ok || sp != p {
			t.Fatalf("snapshot PathOf(%#x) = %q, %v; want %q", id, sp, ok, p)
		}
		if sid, ok := snap.IDOf(p); !ok || sid != id {
			t.Fatalf("snapshot IDOf(%s) = %#x, %v; want %#x", p, sid, ok, id)
		}
	}
}

// TestSnapshotResultSurvivesMerge evaluates against a pinned snapshot,
// lets a merge commit between the lookup and the path resolution, and
// checks the result set still resolves exactly — the multi-call query
// evaluation the snapshot exists for.
func TestSnapshotResultSurvivesMerge(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(3)
	var want []string
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/x/a%02d", i)
		ix.Add(p, []byte("apple"))
		want = append(want, p)
	}
	snap := ix.Snapshot()
	res := snap.Lookup("apple")

	// The merge retires every sealed segment the result references.
	ix.ForceMerge()
	got := snap.Paths(res)
	if len(got) != len(want) {
		t.Fatalf("Paths after merge = %v, want %d docs", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Paths[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The index's own Paths degrades gracefully on the old result set
	// as well, via the forward tables.
	if got := ix.Paths(res); len(got) != len(want) {
		t.Fatalf("index Paths on pre-merge result = %v, want %d docs", got, len(want))
	}
}

// TestSnapshotFreezesIDSpace checks that documents added after the pin
// are invisible to the snapshot, and that deletions after the pin are
// too: the snapshot freezes both the ID space and the tombstones.
func TestSnapshotFreezesIDSpace(t *testing.T) {
	ix := New()
	ix.Add("/a", []byte("apple"))
	ix.Add("/b", []byte("apple"))
	snap := ix.Snapshot()

	ix.Add("/c", []byte("apple")) // post-pin: outside the frozen space
	ix.Remove("/b")               // post-pin: still live in the snapshot

	if got := snap.Paths(snap.Lookup("apple")); len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("pinned lookup = %v, want [/a /b]", got)
	}
	if got := ix.Snapshot(); len(got.Paths(got.Lookup("apple"))) != 2 {
		t.Fatalf("fresh lookup = %v, want [/a /c]", got.Paths(got.Lookup("apple")))
	}
	if _, ok := snap.IDOf("/c"); ok {
		t.Fatal("snapshot resolved a document committed after the pin")
	}
	if epoch := snap.Epoch(); epoch != ix.Snapshot().Epoch() {
		t.Fatalf("epoch moved without a merge: %d vs %d", epoch, ix.Snapshot().Epoch())
	}
}

// TestSnapshotPinsTombstones pins a snapshot, then updates a document
// through a commit (serial Add and a parallel SyncTree chunk), and
// checks that every pinned read path still returns the old version:
// the snapshot keeps the tombstones of its pin time.
func TestSnapshotPinsTombstones(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fsys := vfs.New()
			clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			fsys.SetClock(func() time.Time { return clock })
			if err := fsys.MkdirAll("/d"); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"/d/a", "/d/b"} {
				if err := fsys.WriteFile(p, []byte("apple "+p)); err != nil {
					t.Fatal(err)
				}
			}
			ix := New()
			if _, _, _, err := ix.SyncTreeParallel(fsys, "/d", workers); err != nil {
				t.Fatal(err)
			}
			snap := ix.Snapshot()

			clock = clock.Add(time.Minute)
			if err := fsys.WriteFile("/d/b", []byte("banana")); err != nil {
				t.Fatal(err)
			}
			if _, updated, _, err := ix.SyncTreeParallel(fsys, "/d", workers); err != nil || updated != 1 {
				t.Fatalf("reindex updated %d, %v; want 1", updated, err)
			}
			ix.Add("/d/a", []byte("cherry")) // a serial commit too

			want := []string{"/d/a", "/d/b"}
			check := func(what string, got []string) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pinned %s = %v, want %v", what, got, want)
				}
			}
			check("Lookup", snap.Paths(snap.Lookup("apple")))
			check("LookupPrefix", snap.Paths(snap.LookupPrefix("app")))
			check("LookupFuzzy", snap.Paths(snap.LookupFuzzy("appla")))
			under, _ := snap.LookupUnder("apple", "/d")
			check("LookupUnder", snap.Paths(under))
			check("DocsUnder", snap.Paths(snap.DocsUnder("/d")))
			check("AllDocs", snap.Paths(snap.AllDocs()))

			fresh := ix.Snapshot()
			if got := fresh.Paths(fresh.Lookup("apple")); len(got) != 0 {
				t.Fatalf("fresh Lookup(apple) = %v, want none", got)
			}
		})
	}
}

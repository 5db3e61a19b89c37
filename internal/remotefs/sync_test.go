package remotefs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hacfs/internal/hac"
	"hacfs/internal/vfs"
	"hacfs/internal/vfs/cas"
)

// syncCorpus populates fsys with a small tree: nested dirs, a symlink,
// and files with one duplicated content blob.
func syncCorpus(t *testing.T, fsys vfs.FileSystem) {
	t.Helper()
	for _, dir := range []string{"/docs", "/docs/deep", "/mail"} {
		if err := fsys.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]string{
		"/docs/a.txt":      "alpha content",
		"/docs/deep/b.txt": "beta content",
		"/mail/c.txt":      "alpha content", // dedup hit against a.txt
		"/mail/d.txt":      strings.Repeat("delta", 200),
	}
	for path, data := range files {
		if err := fsys.WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.Symlink("/docs/a.txt", "/link"); err != nil {
		t.Fatal(err)
	}
}

// treeOf flattens a file system into path → description for equality
// checks across substrates.
func treeOf(t *testing.T, fsys vfs.FileSystem) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := vfs.Walk(fsys, "/", func(p string, info vfs.Info) error {
		switch info.Type {
		case vfs.TypeDir:
			out[p] = "dir"
		case vfs.TypeSymlink:
			target, err := fsys.Readlink(p)
			if err != nil {
				return err
			}
			out[p] = "link:" + target
		case vfs.TypeFile:
			data, err := fsys.ReadFile(p)
			if err != nil {
				return err
			}
			out[p] = "file:" + string(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameTree(t *testing.T, want, got vfs.FileSystem) {
	t.Helper()
	w, g := treeOf(t, want), treeOf(t, got)
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("trees differ:\nwant %v\ngot  %v", w, g)
	}
}

func TestMirrorVolumeManifestDiff(t *testing.T) {
	for _, tc := range []struct {
		name string
		dial func(t *testing.T, fsys vfs.FileSystem) *MuxClient
	}{
		{"mux", serveMuxClient},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := cas.New(nil)
			syncCorpus(t, src)
			peer := tc.dial(t, src)
			dst := cas.New(nil)

			stats, err := MirrorVolume(context.Background(), peer, dst)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Mode != "manifest-diff" {
				t.Fatalf("Mode = %q, want manifest-diff", stats.Mode)
			}
			if stats.ManifestBytes <= 0 {
				t.Fatalf("ManifestBytes = %d, want > 0", stats.ManifestBytes)
			}
			// Three distinct contents across four files: the duplicate
			// blob must cross the wire once.
			if stats.BlobsFetched != 3 {
				t.Fatalf("BlobsFetched = %d, want 3", stats.BlobsFetched)
			}
			requireSameTree(t, src, dst)

			// Unchanged re-sync: every blob is already local.
			stats, err = MirrorVolume(context.Background(), peer, dst)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BlobsFetched != 0 || stats.BlobBytes != 0 {
				t.Fatalf("re-sync fetched %d blobs / %d bytes, want 0/0", stats.BlobsFetched, stats.BlobBytes)
			}
			requireSameTree(t, src, dst)

			// Incremental: one changed file ships exactly one blob of
			// that file's size.
			changed := []byte("alpha content, revised")
			if err := src.WriteFile("/docs/a.txt", changed); err != nil {
				t.Fatal(err)
			}
			if err := src.Remove("/mail/d.txt"); err != nil {
				t.Fatal(err)
			}
			stats, err = MirrorVolume(context.Background(), peer, dst)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BlobsFetched != 1 || stats.BlobBytes != int64(len(changed)) {
				t.Fatalf("dirty sync fetched %d blobs / %d bytes, want 1/%d",
					stats.BlobsFetched, stats.BlobBytes, len(changed))
			}
			requireSameTree(t, src, dst)
		})
	}
}

// A HAC volume over a cas substrate serves its substrate's manifest, so
// a replica mirrors the underlying tree through the quota-free wire.
func TestMirrorVolumeThroughHACVolume(t *testing.T) {
	substrate := cas.New(nil)
	hfs := hac.New(substrate, hac.Options{})
	syncCorpus(t, substrate)
	peer := serve(t, hfs)
	dst := cas.New(nil)

	stats, err := MirrorVolume(context.Background(), peer, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "manifest-diff" {
		t.Fatalf("Mode = %q, want manifest-diff", stats.Mode)
	}
	requireSameTree(t, substrate, dst)
}

// A server whose volume is not content-addressed answers opManifest
// with Unsupported and the mirror falls back to the full copy; the
// result is still an exact replica.
func TestMirrorVolumeNonCASPeerFallback(t *testing.T) {
	src := vfs.New()
	syncCorpus(t, src)
	peer := serve(t, src)
	dst := cas.New(nil)
	if err := dst.WriteFile("/stale.txt", []byte("must go")); err != nil {
		t.Fatal(err)
	}

	stats, err := MirrorVolume(context.Background(), peer, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "full" {
		t.Fatalf("Mode = %q, want full", stats.Mode)
	}
	if stats.FilesCopied != 4 {
		t.Fatalf("FilesCopied = %d, want 4", stats.FilesCopied)
	}
	requireSameTree(t, src, dst)
}

// A non-CAS destination never asks for a manifest: the full copy runs
// even against a capable server.
func TestMirrorVolumeNonCASDestination(t *testing.T) {
	src := cas.New(nil)
	syncCorpus(t, src)
	peer := serve(t, src)
	dst := vfs.New()

	stats, err := MirrorVolume(context.Background(), peer, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "full" {
		t.Fatalf("Mode = %q, want full", stats.Mode)
	}
	requireSameTree(t, src, dst)
}

// hookedVolume serves a cas volume over the real wire with a hook in
// front of its blob fetches, so a test can count, corrupt or fail them.
type hookedVolume struct {
	*cas.FS
	blobs func(hashes []cas.Hash) ([][]byte, error)
}

func (v *hookedVolume) CASBlobs(hashes []cas.Hash) ([][]byte, error) { return v.blobs(hashes) }

// Blob fetches are packed into count-bounded batches.
func TestMirrorVolumeBatchesBlobFetches(t *testing.T) {
	src := cas.New(nil)
	n := syncBatchCount + syncBatchCount/2 // forces two opBlobs round trips
	for i := 0; i < n; i++ {
		if err := src.WriteFile(fmt.Sprintf("/f%04d.txt", i), []byte(fmt.Sprintf("content %04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var calls int
	peer := serveMuxClient(t, &hookedVolume{FS: src, blobs: func(hashes []cas.Hash) ([][]byte, error) {
		calls++
		return src.CASBlobs(hashes)
	}})
	dst := cas.New(nil)
	stats, err := MirrorVolume(context.Background(), peer, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsFetched != n {
		t.Fatalf("BlobsFetched = %d, want %d", stats.BlobsFetched, n)
	}
	if calls != 2 {
		t.Fatalf("opBlobs round trips = %d, want 2", calls)
	}
	requireSameTree(t, src, dst)
}

// A server returning content that does not hash to what was requested
// is rejected before anything enters the local store.
func TestMirrorVolumeRejectsWrongContent(t *testing.T) {
	src := cas.New(nil)
	syncCorpus(t, src)
	peer := serveMuxClient(t, &hookedVolume{FS: src, blobs: func(hashes []cas.Hash) ([][]byte, error) {
		blobs, err := src.CASBlobs(hashes)
		if err == nil && len(blobs) > 0 {
			last := bytes.Clone(blobs[len(blobs)-1])
			blobs[len(blobs)-1] = append(last, 'x') // corrupt the last blob's content
		}
		return blobs, err
	}})
	dst := cas.New(nil)
	_, err := MirrorVolume(context.Background(), peer, dst)
	if err == nil || !strings.Contains(err.Error(), "wrong content") {
		t.Fatalf("err = %v, want wrong-content rejection", err)
	}
	if got := dst.Store().UniqueBytes(); got != 0 {
		t.Fatalf("rejected sync left %d bytes pinned in the store", got)
	}
}

// A failed sync must leave no temporary references pinned in a store
// shared with other volumes.
func TestMirrorVolumeFailureReleasesFetchedBlobs(t *testing.T) {
	src := cas.New(nil)
	syncCorpus(t, src)
	var peer *MuxClient
	var blobCalls int
	peer = serveMuxClient(t, &hookedVolume{FS: src, blobs: func(hashes []cas.Hash) ([][]byte, error) {
		blobCalls++
		if blobCalls > 1 {
			// The link drops while the second batch is in flight.
			peer.Close()
			return nil, errors.New("link dropped")
		}
		return src.CASBlobs(hashes)
	}})
	// Two files each over half the batch byte budget force at least two
	// round trips, so the cut connection interrupts a partially fetched
	// sync with temporaries already in the store.
	big := bytes.Repeat([]byte("x"), syncBatchBytes/2+1)
	if err := src.WriteFile("/big1.bin", big); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteFile("/big2.bin", append(bytes.Clone(big), 'y')); err != nil {
		t.Fatal(err)
	}
	shared := cas.NewStore()
	dst := cas.New(shared)
	if _, err := MirrorVolume(context.Background(), peer, dst); err == nil {
		t.Fatal("sync over a dropped link succeeded")
	}
	if blobCalls < 2 {
		t.Fatalf("opBlobs round trips = %d, want the second one cut", blobCalls)
	}
	if got := shared.UniqueBytes(); got != 0 {
		t.Fatalf("failed sync left %d bytes pinned in the shared store", got)
	}
}

func TestBlobListCodec(t *testing.T) {
	blobs := [][]byte{[]byte("one"), {}, []byte("three")}
	data, err := encodeBlobList(blobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlobList(data, len(blobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blobs, got) {
		t.Fatalf("round trip = %q, want %q", got, blobs)
	}
	// Wrong expected counts, truncations, and oversize lengths reject.
	if _, err := decodeBlobList(data, 2); err == nil {
		t.Fatal("extra blob accepted")
	}
	if _, err := decodeBlobList(data, 4); err == nil {
		t.Fatal("missing blob accepted")
	}
	if _, err := decodeBlobList(data[:len(data)-1], len(blobs)); err == nil {
		t.Fatal("truncated content accepted")
	}
	if _, err := decodeBlobList(data[:4], 1); err == nil {
		t.Fatal("truncated length accepted")
	}
	huge := make([]byte, 8)
	huge[0] = 0xff
	if _, err := decodeBlobList(huge, 1); err == nil {
		t.Fatal("oversize length accepted")
	}
}

func TestHashCodec(t *testing.T) {
	hashes := []cas.Hash{cas.Sum([]byte("a")), cas.Sum([]byte("b"))}
	got, err := splitHashes(joinHashes(hashes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hashes, got) {
		t.Fatalf("round trip = %v, want %v", got, hashes)
	}
	if _, err := splitHashes(make([]byte, 33)); err == nil {
		t.Fatal("ragged hash list accepted")
	}
	if _, err := splitHashes(make([]byte, 32*(maxBlobFetch+1))); err == nil {
		t.Fatal("oversized hash list accepted")
	}
}

package hac

import (
	"context"
	"fmt"
	"testing"

	"hacfs/internal/vfs"
)

// BenchmarkSearchSemanticScope measures hac.Search scoped to a semantic
// directory of 2,500 links, with the result cache bypassed so every
// iteration resolves the scope and runs the plan. "hit" searches an
// unchanged volume, so the directory's memoized scope is reused; "miss"
// bumps the index version before each search, so the scope is rebuilt.
//
//	go test -run '^$' -bench SearchSemanticScope -benchmem ./internal/hac
func BenchmarkSearchSemanticScope(b *testing.B) {
	fs := New(vfs.New(), Options{Parallelism: 1})
	for d := 0; d < 50; d++ {
		dir := fmt.Sprintf("/docs/d%02d", d)
		if err := fs.MkdirAll(dir); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 100; f++ {
			body := "filler"
			if f%2 == 0 {
				body = "linked filler"
			}
			if f%10 == 0 {
				body += " needle"
			}
			if err := fs.WriteFile(fmt.Sprintf("%s/f%03d.txt", dir, f), []byte(body)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := fs.Reindex("/"); err != nil {
		b.Fatal(err)
	}
	if err := fs.SemDir("/sem", "linked"); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	search := func(b *testing.B) {
		res, err := fs.Search(ctx, "needle", WithScope("/sem"), WithoutCache())
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 500 {
			b.Fatalf("%d matches, want 500", res.Len())
		}
	}
	b.Run("hit", func(b *testing.B) {
		search(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs.Index().Add("/bump.txt", []byte(fmt.Sprint(i)))
			b.StartTimer()
			search(b)
		}
	})
}

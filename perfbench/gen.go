package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hacfs/internal/corpus"
	"hacfs/internal/index"
	"hacfs/internal/vfs"
)

// The corpora come from the repository's seeded generator
// (internal/corpus), the one behind the Table 3 and 4 experiments. Its
// manifest gives every file's topics and planted markers exactly, which
// is what the oracles check the program against.

const (
	termFew  = "markerfew"
	termMid  = "markermid"
	termMany = "markermany"
	// termEdit is the marker the cba writer toggles.
	termEdit = "markeredit"
	nTopics  = 8
)

// markerShare plants the paper's three Table 4 selectivity classes
// (the generator's defaults) and markeredit in 2% of the files.
var markerShare = map[string]float64{termFew: 0.002, termMid: 0.10, termMany: 0.60, termEdit: 0.02}

// markerTerms lists the markers in the order the generator writes them;
// doc.markers has bit i set when the file carries markerTerms[i].
var markerTerms = []string{termEdit, termFew, termMany, termMid}

func markerBit(term string) uint8 {
	for i, m := range markerTerms {
		if m == term {
			return 1 << i
		}
	}
	panic("unknown marker " + term)
}

// doc is what the oracles expect the program to report about one file.
// Rewrites keep a file's topics and markers (cba toggles only
// markeredit), so the counts below stay exact.
type doc struct {
	path    string
	topics  []int
	markers uint8
	size    int
}

func (d doc) has(t int) bool {
	for _, x := range d.topics {
		if x == t {
			return true
		}
	}
	return false
}

func (d doc) marked(term string) bool { return d.markers&markerBit(term) != 0 }

// docSet is one generated corpus and the manifest the oracles check.
type docSet struct {
	topicTerm []string
	docs      []doc
	dirs      []string // the corpus directories, search scopes
	byTop     []int    // files per topic
	// vocab holds body words by falling frequency in a sample of the
	// files: the Zipf ranks searches and rewrites draw from.
	vocab []string
}

// generate writes a corpus of n files in dirs directories under root
// with corpus.Generate and returns its manifest.
func generate(fsys vfs.FileSystem, root string, n, dirs int, seed int64) (*docSet, error) {
	if err := fsys.MkdirAll(root); err != nil {
		return nil, err
	}
	man, err := corpus.Generate(fsys, root, corpus.Spec{Files: n, Dirs: dirs, MeanWords: 160, Seed: seed, Markers: markerShare})
	if err != nil {
		return nil, err
	}
	bits := map[string]uint8{}
	for term, paths := range man.MarkerFiles {
		for _, p := range paths {
			bits[p] |= markerBit(term)
		}
	}
	c := &docSet{topicTerm: man.TopicTerm, docs: make([]doc, len(man.Files))}
	for i, f := range man.Files {
		c.docs[i] = doc{path: f.Path, topics: f.Topics, markers: bits[f.Path], size: f.Bytes}
	}
	for d := 0; d < dirs; d++ {
		c.dirs = append(c.dirs, vfs.Join(root, fmt.Sprintf("dir%03d", d)))
	}
	c.tally()
	return c, c.sampleVocab(fsys, 300)
}

// tally recounts the files per topic after the manifest changed.
func (c *docSet) tally() {
	c.byTop = make([]int, nTopics)
	for t := range c.byTop {
		c.byTop[t] = c.count(func(d doc) bool { return d.has(t) })
	}
}

// sampleVocab ranks the words of the first k files by frequency.
func (c *docSet) sampleVocab(fsys vfs.FileSystem, k int) error {
	count := map[string]int{}
	for _, d := range c.docs[:min(k, len(c.docs))] {
		data, err := fsys.ReadFile(d.path)
		if err != nil {
			return err
		}
		for _, w := range index.Tokenize(data) {
			// Keep topic and marker terms out: rewrites and the query keys
			// must not change or guess at the counts the oracles check.
			if len(w) >= 4 && !strings.HasPrefix(w, "topic") && !strings.HasPrefix(w, "marker") {
				count[w]++
			}
		}
	}
	c.vocab = c.vocab[:0]
	for w := range count {
		c.vocab = append(c.vocab, w)
	}
	sort.Slice(c.vocab, func(i, j int) bool {
		a, b := c.vocab[i], c.vocab[j]
		return count[a] > count[b] || count[a] == count[b] && a < b
	})
	if len(c.vocab) < 100 {
		return fmt.Errorf("corpus sample has only %d distinct words", len(c.vocab))
	}
	return nil
}

// count returns how many files satisfy keep.
func (c *docSet) count(keep func(d doc) bool) int {
	n := 0
	for _, d := range c.docs {
		if keep(d) {
			n++
		}
	}
	return n
}

// content renders a rewrite of d: Zipf-drawn body words, then d's topic
// terms and markers as the generator lays them out, exactly d.size
// bytes in all.
func (c *docSet) content(rng *rand.Rand, d doc) []byte {
	var tail strings.Builder
	for _, t := range d.topics {
		tail.WriteString(c.topicTerm[t] + " ")
	}
	for _, m := range markerTerms {
		if d.marked(m) {
			tail.WriteString(m + " ")
		}
	}
	tail.WriteByte('\n')
	body := max(d.size-tail.Len(), 1)
	var b strings.Builder
	b.Grow(body + tail.Len() + 16)
	for w := 0; b.Len() < body; w++ {
		u := rng.Float64()
		b.WriteString(c.vocab[int(float64(len(c.vocab))*u*u)])
		if w%12 == 11 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	out := []byte(b.String())[:body]
	out[body-1] = ' ' // a word cut short must not run into the tail
	return append(out, tail.String()...)
}

// query is one (query string, scope) key. want >= 0 when the oracle
// knows its match count from the manifest.
type query struct {
	q, scope string
	want     int
}

// queryKeys builds the key space searches draw from by Zipf rank: term,
// AND, AND NOT, prefix and dir: queries over root, corpus-directory and
// semantic-directory scopes, plus root-scope topic and marker queries
// whose counts the manifest gives.
func queryKeys(c *docSet, n int, semdirs []string) []query {
	keys := make([]query, 0, n)
	// The checkable keys come first so the Zipf head repeats them.
	for t := 0; t < nTopics; t++ {
		keys = append(keys, query{c.topicTerm[t], "/", c.byTop[t]})
		keys = append(keys, query{c.topicTerm[t] + " AND " + termMid, "/",
			c.count(func(d doc) bool { return d.has(t) && d.marked(termMid) })})
	}
	for _, m := range []string{termFew, termMid, termMany} {
		keys = append(keys, query{m, "/", c.count(func(d doc) bool { return d.marked(m) })})
	}
	// The other keys have the same structure for every seed: key i's
	// class, word ranks and scope kind follow from i.
	word := func(i int) string { return c.vocab[i%(len(c.vocab)/2)] }
	for i := len(keys); len(keys) < n; i++ {
		a, b := word(i*37), word(i*53+11)
		var q string
		switch i % 10 {
		case 0, 1, 2:
			q = a
		case 3, 4:
			q = a + " AND " + b
		case 5, 6:
			q = a + " AND NOT " + b
		case 7, 8:
			q = a[:3] + "*"
		default:
			if len(semdirs) == 0 {
				q = a
			} else {
				q = "dir:" + semdirs[i%len(semdirs)] + " AND " + a
			}
		}
		scope := "/"
		switch (i / 10) % 4 {
		case 1:
			scope = c.dirs[(i/40)%len(c.dirs)]
		case 2:
			if len(semdirs) > 0 {
				scope = semdirs[(i/40)%len(semdirs)]
			}
		}
		keys = append(keys, query{q, scope, -1})
	}
	return keys
}

package vfs

import (
	"errors"
	"slices"
	"sort"
	"strings"
)

// SkipDir can be returned by a WalkFunc to skip the current directory's
// contents.
var SkipDir = errors.New("skip this directory")

// WalkFunc is called once per visited object. Symlinks are reported but
// never followed, so walks terminate even on cyclic link structures.
type WalkFunc func(path string, info Info) error

// Walk traverses the tree rooted at root in depth-first, name-sorted
// order, calling fn for every object including root itself. It works on
// any FileSystem, crossing syntactic mount points transparently
// (ReadDir on a mount point lists the mounted file system).
func Walk(fsys FileSystem, root string, fn WalkFunc) error {
	info, err := fsys.Lstat(root)
	if err != nil {
		return err
	}
	return walk(fsys, root, info, fn)
}

func walk(fsys FileSystem, p string, info Info, fn WalkFunc) error {
	err := fn(p, info)
	if err == SkipDir {
		return nil
	}
	if err != nil {
		return err
	}
	if info.Type != TypeDir {
		return nil
	}
	entries, err := fsys.ReadDir(p)
	if err != nil {
		return err
	}
	// The in-memory substrates already list in name order; only sort
	// what arrives unsorted (a remote or foreign FileSystem).
	if !slices.IsSortedFunc(entries, entryByName) {
		slices.SortFunc(entries, entryByName)
	}
	for _, e := range entries {
		child := Join(p, e.Name)
		ci, err := fsys.Lstat(child)
		if errors.Is(err, ErrNotExist) {
			// Entry vanished between ReadDir and Lstat; skip it.
			continue
		}
		if err != nil {
			// Any other failure must surface: a walk that silently
			// omits an existing entry makes incremental consumers
			// (index.SyncTree) treat the entry as deleted.
			return err
		}
		if err := walk(fsys, child, ci, fn); err != nil {
			return err
		}
	}
	return nil
}

// entryByName orders directory entries by name.
func entryByName(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) }

// Files returns the paths of all regular files under root, sorted.
func Files(fsys FileSystem, root string) ([]string, error) {
	var out []string
	err := Walk(fsys, root, func(p string, info Info) error {
		if info.Type == TypeFile {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// CopyFile copies one file's contents within or across file systems.
func CopyFile(src FileSystem, srcPath string, dst FileSystem, dstPath string) error {
	data, err := src.ReadFile(srcPath)
	if err != nil {
		return err
	}
	return dst.WriteFile(dstPath, data)
}

// CopyTree replicates the tree rooted at srcPath in src under dstPath in
// dst, copying directories, files, and symlinks (targets verbatim).
func CopyTree(src FileSystem, srcPath string, dst FileSystem, dstPath string) error {
	return Walk(src, srcPath, func(p string, info Info) error {
		rel := p[len(srcPath):]
		target := Join(dstPath, rel)
		switch info.Type {
		case TypeDir:
			return dst.MkdirAll(target)
		case TypeSymlink:
			link, err := src.Readlink(p)
			if err != nil {
				return err
			}
			return dst.Symlink(link, target)
		default:
			return CopyFile(src, p, dst, target)
		}
	})
}

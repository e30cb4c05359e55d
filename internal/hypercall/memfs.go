package hypercall

import (
	"fmt"
	"sort"
)

// FS is the in-memory host filesystem the canned handlers delegate to —
// the stand-in for the host kernel's VFS that a validated read() or
// open() hypercall would reach (§6.3: "a validated read() will turn into
// a read() on the host filesystem"). It is hermetic so experiments are
// reproducible.
type FS struct {
	files map[string][]byte
	fds   map[int]*openFile
	next  int
}

type openFile struct {
	path string
	off  int
}

// NewFS returns an empty filesystem. It allocates only the FS: the file
// map comes with the first Put or Fork, the descriptor table with the
// first Open.
func NewFS() *FS {
	return &FS{next: 4} // 0-2 are std streams, 3 is the virtual socket
}

// Fork returns a filesystem sharing this one's file contents with a
// fresh descriptor table: request-private open-file state over a common
// static file set, at O(1) cost. The file map itself is shared, so
// forks are for read-mostly serving paths — a Put on any fork is
// visible to all of them and must not race in-flight reads. Forking a
// filesystem that has no files yet creates its file map, so that too is
// a write and must not race other forks.
func (fs *FS) Fork() *FS {
	if fs.files == nil {
		fs.files = make(map[string][]byte)
	}
	return &FS{files: fs.files, next: fs.next}
}

// Put installs (or replaces) a file. The file system only ever reads file
// contents, so it keeps data itself rather than a copy: the caller must
// not modify data afterwards, and every Fork serves the same bytes.
func (fs *FS) Put(path string, data []byte) {
	if fs.files == nil {
		fs.files = make(map[string][]byte)
	}
	fs.files[path] = data
}

// Paths lists all file paths, sorted.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stat returns the file size.
func (fs *FS) Stat(path string) (int, error) {
	data, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("memfs: stat %s: no such file", path)
	}
	return len(data), nil
}

// Open opens an existing file for reading and returns a descriptor.
func (fs *FS) Open(path string) (int, error) {
	if _, ok := fs.files[path]; !ok {
		return 0, fmt.Errorf("memfs: open %s: no such file", path)
	}
	if fs.fds == nil {
		fs.fds = make(map[int]*openFile)
	}
	fd := fs.next
	fs.next++
	fs.fds[fd] = &openFile{path: path}
	return fd, nil
}

// Read reads up to n bytes from the descriptor, advancing its offset.
func (fs *FS) Read(fd, n int) ([]byte, error) {
	of, ok := fs.fds[fd]
	if !ok {
		return nil, fmt.Errorf("memfs: read fd %d: bad descriptor", fd)
	}
	data := fs.files[of.path]
	if of.off >= len(data) {
		return nil, nil // EOF
	}
	end := of.off + n
	if end > len(data) {
		end = len(data)
	}
	out := data[of.off:end:end] // an append to it cannot reach the file's later bytes
	of.off = end
	return out, nil
}

// Close releases a descriptor.
func (fs *FS) Close(fd int) error {
	if _, ok := fs.fds[fd]; !ok {
		return fmt.Errorf("memfs: close fd %d: bad descriptor", fd)
	}
	delete(fs.fds, fd)
	return nil
}

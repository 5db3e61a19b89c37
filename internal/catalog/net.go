package catalog

import (
	"encoding/gob"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"hacfs/internal/hac"
	"hacfs/internal/wire"
)

// Network form of the §3.2 central database: users publish the names,
// queries and query-results of their semantic directories to a shared
// catalog server, then search it and ask for similar classifications.

type catOp uint8

const (
	catPublish catOp = iota + 1
	catSearch
	catSimilar
	catEntries
	catPing
)

type catRequest struct {
	Op      catOp
	User    string
	Path    string
	Query   string
	Entries []Entry
}

type catResponse struct {
	Err     string
	Entries []Entry
	Matches []Match
	N       int
}

// Server exposes a Catalog over TCP.
type Server struct {
	*wire.ConnServer
	cat    *Catalog
	logger *log.Logger
}

// NewServer wraps a catalog (use New() for a fresh one). logger may be
// nil.
func NewServer(cat *Catalog, logger *log.Logger) *Server {
	s := &Server{cat: cat, logger: logger}
	s.ConnServer = wire.NewConnServer(s.serveConn)
	return s
}

// Catalog returns the served catalog.
func (s *Server) Catalog() *Catalog { return s.cat }

func (s *Server) serveConn(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req catRequest
		if err := dec.Decode(&req); err != nil {
			if err != io.EOF && s.logger != nil {
				s.logger.Printf("catalog: decode: %v", err)
			}
			return
		}
		if err := enc.Encode(s.handle(&req)); err != nil {
			return
		}
	}
}

func (s *Server) handle(req *catRequest) *catResponse {
	switch req.Op {
	case catPing:
		return &catResponse{}
	case catPublish:
		for _, e := range req.Entries {
			if e.User != req.User {
				return &catResponse{Err: "catalog: entry user does not match publisher"}
			}
			s.cat.Add(e)
		}
		return &catResponse{N: len(req.Entries)}
	case catSearch:
		hits, err := s.cat.Search(req.Query)
		if err != nil {
			return &catResponse{Err: err.Error()}
		}
		return &catResponse{Entries: hits}
	case catSimilar:
		matches, err := s.cat.SimilarTo(req.User, req.Path)
		if err != nil {
			return &catResponse{Err: err.Error()}
		}
		return &catResponse{Matches: matches}
	case catEntries:
		return &catResponse{Entries: s.cat.Entries()}
	default:
		return &catResponse{Err: "catalog: unknown operation"}
	}
}

// Client talks to a catalog server. Safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial creates a client for the catalog server at addr.
func Dial(addr string) *Client {
	return &Client{addr: addr, timeout: 10 * time.Second}
}

// Close drops the connection; later calls re-dial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.enc, c.dec = nil, nil, nil
	return err
}

func (c *Client) call(req *catRequest) (*catResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if c.conn == nil {
			conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
			if err != nil {
				return nil, fmt.Errorf("catalog: dial %s: %w", c.addr, err)
			}
			c.conn = conn
			c.enc = gob.NewEncoder(conn)
			c.dec = gob.NewDecoder(conn)
		}
		if c.timeout > 0 {
			c.conn.SetDeadline(time.Now().Add(c.timeout))
		}
		if err := c.enc.Encode(req); err != nil {
			lastErr = err
			c.dropLocked()
			continue
		}
		var resp catResponse
		if err := c.dec.Decode(&resp); err != nil {
			lastErr = err
			c.dropLocked()
			continue
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("catalog: server: %s", resp.Err)
		}
		return &resp, nil
	}
	return nil, fmt.Errorf("catalog: %s: %w", c.addr, lastErr)
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(&catRequest{Op: catPing})
	return err
}

// Harvest collects the publishable entries of a volume.
func Harvest(user string, fs *hac.FS) ([]Entry, error) {
	var out []Entry
	for _, dir := range fs.SemanticDirs() {
		q, err := fs.QueryDisplay(dir)
		if err != nil {
			return nil, err
		}
		targets, err := fs.LinkTargets(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{User: user, Path: dir, Query: q, Targets: targets})
	}
	return out, nil
}

// Publish harvests a volume's semantic directories and ships them to
// the server, returning how many entries were published.
func (c *Client) Publish(user string, fs *hac.FS) (int, error) {
	entries, err := Harvest(user, fs)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(&catRequest{Op: catPublish, User: user, Entries: entries})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Search queries the remote catalog.
func (c *Client) Search(q string) ([]Entry, error) {
	resp, err := c.call(&catRequest{Op: catSearch, Query: q})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// SimilarTo asks for classifications similar to the given entry.
func (c *Client) SimilarTo(user, path string) ([]Match, error) {
	resp, err := c.call(&catRequest{Op: catSimilar, User: user, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Matches, nil
}

// Entries lists the whole remote catalog.
func (c *Client) Entries() ([]Entry, error) {
	resp, err := c.call(&catRequest{Op: catEntries})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

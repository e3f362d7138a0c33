// Package objstore is the repository's MinIO substitute: an in-memory
// S3-style object store served over HTTP, with a matching client.
//
// The paper's COSGet and COSPut workload functions download from and upload
// to a MinIO cloud object store hosted on a dedicated SBC (Table I). This
// package provides the same bucket/object model over net/http, so the
// bulk-transfer workloads move real bytes through a real HTTP stack.
//
// It serves what those two functions and their fixture do: create a bucket
// (PUT), store an object (PUT, answering its MD5 ETag), fetch one (GET).
// PR 24 cut the rest — HEAD/Stat, DELETE, bucket listing, Range requests —
// each now answers 405 (a Range header is ignored and the whole object
// sent, as HTTP allows); any of them is one `git revert` hunk away.
package objstore

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Store is a thread-safe in-memory bucket/object map.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{buckets: make(map[string]map[string][]byte)}
}

// CreateBucket makes a bucket; creating an existing bucket is a no-op.
func (s *Store) CreateBucket(bucket string) error {
	if bucket == "" {
		return fmt.Errorf("objstore: empty bucket name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucket]; !ok {
		s.buckets[bucket] = make(map[string][]byte)
	}
	return nil
}

// Put stores an object, creating the bucket on demand, and returns its ETag.
func (s *Store) Put(bucket, key string, data []byte) (string, error) {
	if bucket == "" || key == "" {
		return "", fmt.Errorf("objstore: bucket and key required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		s.buckets[bucket] = b
	}
	b[key] = append([]byte(nil), data...)
	return etag(data), nil
}

// Get returns a copy of an object's bytes.
func (s *Store) Get(bucket, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, false
	}
	data, ok := b[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

func etag(data []byte) string {
	sum := md5.Sum(data)
	return hex.EncodeToString(sum[:])
}

// Server serves a Store over HTTP. Routes:
//
//	PUT /b/{bucket}            create bucket
//	PUT /b/{bucket}/{key...}   store object (body = bytes)
//	GET /b/{bucket}/{key...}   fetch object
type Server struct {
	store *Store
	http  *http.Server

	mu sync.Mutex
}

// NewServer returns a server backed by a fresh store.
func NewServer() *Server { return &Server{store: NewStore()} }

// Listen binds to addr and serves in the background, returning the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("objstore: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/b/", s.handle)
	s.mu.Lock()
	s.http = &http.Server{Handler: mux}
	srv := s.http
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close shuts the HTTP server down immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/b/")
	bucket, key, hasKey := strings.Cut(rest, "/")
	if bucket == "" {
		http.Error(w, "bucket required", http.StatusBadRequest)
		return
	}
	if !hasKey || key == "" {
		s.handleBucket(w, r, bucket)
		return
	}
	s.handleObject(w, r, bucket, key)
}

func (s *Server) handleBucket(w http.ResponseWriter, r *http.Request, bucket string) {
	switch r.Method {
	case http.MethodPut:
		if err := s.store.CreateBucket(bucket); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request, bucket, key string) {
	switch r.Method {
	case http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		tag, err := s.store.Put(bucket, key, data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("ETag", tag)
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		data, ok := s.store.Get(bucket, key)
		if !ok {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.Header().Set("ETag", etag(data))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		w.WriteHeader(http.StatusOK)
		w.Write(data) //nolint:errcheck
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Client accesses an objstore server over HTTP.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at addr ("host:port").
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		http: &http.Client{Timeout: 2 * time.Minute},
	}
}

func (c *Client) url(parts ...string) string {
	return c.base + "/b/" + strings.Join(parts, "/")
}

// CreateBucket makes a bucket.
func (c *Client) CreateBucket(bucket string) error {
	req, err := http.NewRequest(http.MethodPut, c.url(bucket), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("objstore: create bucket: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return statusErr("create bucket", resp)
	}
	return nil
}

// Put uploads an object and returns the server's ETag.
func (c *Client) Put(bucket, key string, data []byte) (string, error) {
	req, err := http.NewRequest(http.MethodPut, c.url(bucket, key), bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("objstore: put: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return "", statusErr("put", resp)
	}
	return resp.Header.Get("ETag"), nil
}

// Get downloads an object; ok=false means it does not exist.
func (c *Client) Get(bucket, key string) (data []byte, ok bool, err error) {
	resp, err := c.http.Get(c.url(bucket, key))
	if err != nil {
		return nil, false, fmt.Errorf("objstore: get: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, statusErr("get", resp)
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
}

func statusErr(op string, resp *http.Response) error {
	return fmt.Errorf("objstore: %s: unexpected status %s", op, resp.Status)
}

// Package objstore is the repository's MinIO substitute: an in-memory
// S3-style object store served over HTTP, with a matching client.
//
// The paper's COSGet and COSPut workload functions download from and upload
// to a MinIO cloud object store hosted on a dedicated SBC (Table I). This
// package provides the same bucket/object model over net/http, so the
// bulk-transfer workloads move real bytes through a real HTTP stack.
//
// It serves what those two functions do: store an object (PUT, answering
// its MD5 ETag), fetch one (GET). A live cluster writes their fixture into
// its Store in process (Server.Store), and a PUT creates its bucket on
// demand. The rest was cut — HEAD/Stat, DELETE, bucket listing and
// creation, Range requests — and each now answers 405 (a Range header is
// ignored and the whole object sent, as HTTP allows); any of them is one
// `git revert` hunk away.
//
// An object's bytes are kept as its PUT delivered them and never written
// again, so a GET writes them without a copy; its ETag is hashed on the
// first ask (a PUT's reply or a GET) and kept, so a blob nobody asks for is
// never hashed.
package objstore

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is a thread-safe in-memory bucket/object map.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string]*object
}

// object is one stored object. Its bytes are never written after it is
// filed — a PUT replaces the object — so a reader may keep them past the
// store's lock. Its MD5 ETag is computed the first time one is asked for.
type object struct {
	data []byte
	once sync.Once
	tag  string
}

// etag returns the object's MD5 ETag, hashing its bytes on the first ask.
func (o *object) etag() string {
	o.once.Do(func() {
		sum := md5.Sum(o.data)
		o.tag = hex.EncodeToString(sum[:])
	})
	return o.tag
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{buckets: make(map[string]map[string]*object)}
}

// Put stores a copy of data as an object, creating the bucket on demand.
func (s *Store) Put(bucket, key string, data []byte) error {
	_, err := s.put(bucket, key, append([]byte(nil), data...))
	return err
}

// put files data, which the store keeps, as the object bucket/key.
func (s *Store) put(bucket, key string, data []byte) (*object, error) {
	if bucket == "" || key == "" {
		return nil, fmt.Errorf("objstore: bucket and key required")
	}
	o := &object{data: data}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string]*object)
		s.buckets[bucket] = b
	}
	b[key] = o
	return o, nil
}

// object returns the object bucket/key; its bytes are read-only.
func (s *Store) object(bucket, key string) (*object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.buckets[bucket][key]
	return o, ok
}

// Server serves a Store over HTTP. Routes:
//
//	PUT /b/{bucket}/{key...}   store object (body = bytes)
//	GET /b/{bucket}/{key...}   fetch object
type Server struct {
	store *Store

	mu     sync.Mutex
	http   *http.Server
	closed bool
}

// maxObject bounds an object's size, and bodyChunk what a PUT's declared
// length allocates before its bytes arrive (a whole fixture blob fits).
const maxObject, bodyChunk = 256 << 20, 1 << 20

// NewServer returns a server backed by a fresh store.
func NewServer() *Server { return &Server{store: NewStore()} }

// Store returns the store the server serves, for writing a fixture in
// process.
func (s *Server) Store() *Store { return s.store }

// ServeOn serves HTTP on ln in the background until Close, which closes
// it. A closed server refuses: it closes ln and returns an error.
func (s *Server) ServeOn(ln net.Listener) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/b/", s.handle)
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() //nolint:errcheck // never served
		return fmt.Errorf("objstore: server already closed")
	}
	s.http = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Close shuts the HTTP server down immediately. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	srv := s.http
	s.http = nil
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
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch r.Method {
	case http.MethodPut:
		data, err := readBody(r)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		o, err := s.store.put(bucket, key, data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("ETag", o.etag())
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		o, ok := s.store.object(bucket, key)
		if !ok {
			http.Error(w, "no such object", http.StatusNotFound)
			return
		}
		w.Header().Set("ETag", o.etag())
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(o.data)))
		w.WriteHeader(http.StatusOK)
		w.Write(o.data) //nolint:errcheck
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// readBody reads a PUT's body into a buffer the store keeps, of exactly
// the body's size. A declared length sizes the buffer as its bytes arrive,
// doubling from bodyChunk; a body without one is read up to maxObject.
func readBody(r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n > maxObject {
		return nil, fmt.Errorf("%d bytes exceeds %d", n, maxObject)
	}
	if n < 0 {
		data, err := io.ReadAll(io.LimitReader(r.Body, maxObject))
		return bytes.Clone(data), err
	}
	data := make([]byte, min(n, bodyChunk))
	for read := 0; ; {
		m, err := io.ReadFull(r.Body, data[read:])
		if read += m; err != nil {
			return nil, fmt.Errorf("%d of %d bytes: %w", read, n, err)
		}
		if int64(read) == n {
			return data, nil
		}
		grown := make([]byte, min(n, 2*int64(len(data))))
		copy(grown, data)
		data = grown
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

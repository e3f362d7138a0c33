package objstore

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// --- Store unit tests ---

// get returns the bytes stored under bucket/key, as the GET handler reads
// them.
func get(s *Store, bucket, key string) ([]byte, bool) {
	o, ok := s.object(bucket, key)
	if !ok {
		return nil, false
	}
	return o.data, true
}

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	if err := s.Put("bkt", "k", []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, ok := get(s, "bkt", "k")
	if !ok || string(data) != "hello" {
		t.Fatalf("Get = %q/%v", data, ok)
	}
}

func TestStorePutAutoCreatesBucket(t *testing.T) {
	s := NewStore()
	s.Put("auto", "k", []byte("v")) //nolint:errcheck
	// A second Put into the bucket finds it there and leaves its objects be.
	if err := s.Put("auto", "k2", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if data, ok := get(s, "auto", "k"); !ok || string(data) != "v" {
		t.Fatalf("Get = %q/%v", data, ok)
	}
}

func TestStoreIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Put("b", "k", buf) //nolint:errcheck
	buf[0] = 'X'
	got, _ := get(s, "b", "k")
	if string(got) != "abc" {
		t.Fatal("Put aliased caller's buffer")
	}
	// A PUT replaces the object and never writes the old one's bytes, so
	// a reader still holding them (a GET writing its reply) reads them whole.
	s.Put("b", "k", []byte("xyz")) //nolint:errcheck
	if again, _ := get(s, "b", "k"); string(got) != "abc" || string(again) != "xyz" {
		t.Fatalf("after a replace: held %q, stored %q; want abc and xyz", got, again)
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.Put("", "k", nil); err == nil {
		t.Fatal("empty bucket accepted in Put")
	}
	if _, ok := s.buckets[""]; ok {
		t.Fatal("a refused Put made the empty bucket")
	}
	if err := s.Put("b", "", nil); err == nil {
		t.Fatal("empty key accepted in Put")
	}
}

func TestETagIsContentHash(t *testing.T) {
	s := NewStore()
	tag := func(key, data string) string {
		o, err := s.put("b", key, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		return o.etag()
	}
	t1, t2, t3 := tag("a", "same"), tag("b", "same"), tag("c", "different")
	if t1 != t2 {
		t.Fatal("identical content must share an ETag")
	}
	if t1 == t3 {
		t.Fatal("different content must not share an ETag")
	}
}

// Property: put-then-get round-trips arbitrary binary payloads.
func TestStoreRoundTripProperty(t *testing.T) {
	s := NewStore()
	prop := func(key string, data []byte) bool {
		if key == "" {
			return true
		}
		if err := s.Put("p", key, data); err != nil {
			return false
		}
		got, ok := get(s, "p", key)
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- End-to-end over HTTP ---

func startObjServer(t *testing.T) *Client {
	t.Helper()
	return NewClient(serveLoopback(t, NewServer()))
}

// serveLoopback binds a loopback listener, serves srv on it until the test
// ends, and returns its address.
func serveLoopback(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeOn(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestServeOnAfterCloseRefuses: a closed server serves nothing on a
// listener it is handed, and closes it.
func TestServeOnAfterCloseRefuses(t *testing.T) {
	srv := NewServer()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ServeOn(ln); err == nil {
		t.Fatal("ServeOn after Close succeeded")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener handed to a closed server: accept = %v, want it closed", err)
	}
}

func TestEndToEndObjectLifecycle(t *testing.T) {
	c := startObjServer(t)
	payload := make([]byte, 1<<20)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	tag, err := c.Put("photos", "cat.jpg", payload)
	if err != nil || tag == "" {
		t.Fatalf("Put: %q, %v", tag, err)
	}
	data, ok, err := c.Get("photos", "cat.jpg")
	if err != nil || !ok || !bytes.Equal(data, payload) {
		t.Fatalf("Get mismatch: ok=%v err=%v len=%d", ok, err, len(data))
	}
	// A second PUT to the key replaces the object and its ETag.
	tag2, err := c.Put("photos", "cat.jpg", []byte("smaller"))
	if err != nil || tag2 == "" || tag2 == tag {
		t.Fatalf("overwrite: %q (was %q), %v", tag2, tag, err)
	}
	data, ok, err = c.Get("photos", "cat.jpg")
	if err != nil || !ok || string(data) != "smaller" {
		t.Fatalf("Get after overwrite = %d bytes/%v/%v", len(data), ok, err)
	}
}

func TestEndToEndMissing(t *testing.T) {
	c := startObjServer(t)
	if _, ok, err := c.Get("nope", "k"); ok || err != nil {
		t.Fatalf("Get missing = %v/%v", ok, err)
	}
	if _, err := c.Put("b", "other", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("b", "k"); ok || err != nil {
		t.Fatalf("Get missing key in a bucket that exists = %v/%v", ok, err)
	}
}

func TestEndToEndNestedKeys(t *testing.T) {
	c := startObjServer(t)
	if _, err := c.Put("b", "dir/sub/file.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := c.Get("b", "dir/sub/file.txt")
	if err != nil || !ok || string(data) != "x" {
		t.Fatalf("nested key: %q/%v/%v", data, ok, err)
	}
}

// TestEndToEndCreateBucketIdempotent keeps the name of the bucket PUT's
// test: the route is cut (the live fixture creates its bucket in process,
// and an object PUT creates its bucket on demand), so every PUT of a
// bucket answers 405, and an object PUT into that bucket still succeeds.
func TestEndToEndCreateBucketIdempotent(t *testing.T) {
	c := startObjServer(t)
	for i := 0; i < 2; i++ {
		if resp, _ := request(t, c, http.MethodPut, "", "b"); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("PUT bucket, try %d: %s, want 405", i+1, resp.Status)
		}
	}
	if _, err := c.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestETagFilledOnFirstAsk pins the lazy ETag: a PUT's reply carries the
// MD5 of the bytes, a GET answers the same tag with the same bytes (under
// concurrent first GETs too), and an object put in process and never
// fetched was never hashed.
func TestETagFilledOnFirstAsk(t *testing.T) {
	srv := NewServer()
	addr := serveLoopback(t, srv)
	c := NewClient(addr)
	payload := make([]byte, 128<<10)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(payload)
	want := hex.EncodeToString(sum[:])
	if tag, err := c.Put("b", "put", payload); err != nil || tag != want {
		t.Fatalf("PUT reply ETag %q (%v), want the MD5 %s", tag, err, want)
	}
	for _, key := range []string{"seeded", "unread"} {
		if err := srv.Store().Put("b", key, payload); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := []string{"put", "seeded"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.http.Get(c.url("b", key))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if tag := resp.Header.Get("ETag"); err != nil || resp.StatusCode != http.StatusOK || tag != want || !bytes.Equal(body, payload) {
				t.Errorf("GET %s: %s, ETag %q, %d bytes (%v); want 200, %s and the payload", key, resp.Status, tag, len(body), err, want)
			}
		}()
	}
	wg.Wait()
	if o, _ := srv.store.object("b", "unread"); o.tag != "" {
		t.Fatalf("an object nobody fetched was hashed: ETag %q", o.tag)
	}
}

// readProbe hands out its bytes at most 64 KiB per Read, as a socket does,
// then io.EOF, and records the most any Read asked for past the bytes
// handed out before it.
type readProbe struct {
	data         []byte
	given, ahead int
}

func (p *readProbe) Read(b []byte) (int, error) {
	p.ahead = max(p.ahead, len(b)-p.given)
	if len(p.data) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), 64<<10)], p.data)
	p.data = p.data[n:]
	p.given += n
	return n, nil
}

// TestBodyGrowsAsItArrives pins readBody's allocation rule: its buffer
// never runs more than bodyChunk ahead of the bytes that arrived, so a
// header claiming 256 MiB with no body behind it sizes no more than
// bodyChunk, while a body that arrives in full ends in one buffer of
// exactly its length.
func TestBodyGrowsAsItArrives(t *testing.T) {
	quiet := &readProbe{}
	if _, err := readBody(&http.Request{ContentLength: maxObject, Body: io.NopCloser(quiet)}); err == nil {
		t.Fatal("a 256 MiB header with no body was accepted")
	}
	if quiet.ahead > bodyChunk {
		t.Fatalf("a 256 MiB header with no body asked for %d bytes, want at most %d", quiet.ahead, bodyChunk)
	}
	for _, n := range []int{0, 5, bodyChunk, 3*bodyChunk + 5} {
		payload := make([]byte, n)
		rand.Read(payload) //nolint:errcheck
		probe := &readProbe{data: payload}
		data, err := readBody(&http.Request{ContentLength: int64(n), Body: io.NopCloser(probe)})
		if err != nil || !bytes.Equal(data, payload) || cap(data) != n {
			t.Fatalf("%d-byte body: %d bytes, cap %d (%v); want the payload in a buffer of its size", n, len(data), cap(data), err)
		}
		if probe.ahead > bodyChunk {
			t.Fatalf("%d-byte body: a read asked for %d bytes past those that arrived, want at most %d", n, probe.ahead, bodyChunk)
		}
	}
	// Without a declared length the body is read to its end and kept in a
	// buffer of its size (to the allocator's 8 KiB page), not in the read's
	// spare room.
	payload := make([]byte, 100<<10+3)
	rand.Read(payload) //nolint:errcheck
	data, err := readBody(&http.Request{ContentLength: -1, Body: io.NopCloser(&readProbe{data: payload})})
	if err != nil || !bytes.Equal(data, payload) || cap(data) > len(payload)+8<<10 {
		t.Fatalf("body without a length: %d bytes, cap %d (%v); want the payload with no slack", len(data), cap(data), err)
	}
}

// rawPut sends a PUT of bucket b, key k that declares length bytes, then
// body, then closes its sending side, and returns the server's status.
func rawPut(t *testing.T, addr string, length int64, body []byte) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "PUT /b/b/k HTTP/1.1\r\nHost: objstore\r\nContent-Length: %d\r\n\r\n", length)
	conn.Write(body)                                   //nolint:errcheck
	conn.(*net.TCPConn).CloseWrite()                   //nolint:errcheck
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPutBodyRefusals: a declared length over maxObject, a body shorter
// than its Content-Length and a 256 MiB header with no body each answer
// 400 and store nothing.
func TestPutBodyRefusals(t *testing.T) {
	srv := NewServer()
	addr := serveLoopback(t, srv)
	for _, tc := range []struct {
		name   string
		length int64
		body   string
	}{
		{"over maxObject", maxObject + 1, ""},
		{"short body", 10, "short"},
		{"256 MiB header, no body", maxObject, ""},
	} {
		if code := rawPut(t, addr, tc.length, []byte(tc.body)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if _, ok := srv.store.object("b", "k"); ok {
			t.Fatalf("%s: the refused PUT stored an object", tc.name)
		}
	}
	if code := rawPut(t, addr, 4, []byte("full")); code != http.StatusCreated {
		t.Fatalf("a body matching its length: status %d, want 201", code)
	}
}

// The tests from here on carry the names of the tests that exercised the
// operations PR 24 cut — object DELETE and HEAD, bucket listing, Range
// requests — and pin what a client of one sees now: 405 through the method
// switch's default arm (a Range header is ignored, as HTTP allows), and the
// stored object untouched.

// request sends a bare HTTP request to the store and returns the response
// with its body read.
func request(t *testing.T, c *Client, method, rangeHdr string, parts ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, c.url(parts...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestStoreDelete(t *testing.T) {
	c := startObjServer(t)
	if _, err := c.Put("b", "k", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodDelete, http.MethodHead, http.MethodPost} {
		if resp, _ := request(t, c, method, "", "b", "k"); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s object: %s, want 405", method, resp.Status)
		}
	}
	if data, ok, err := c.Get("b", "k"); err != nil || !ok || string(data) != "kept" {
		t.Fatalf("object after the refused DELETE = %q/%v/%v", data, ok, err)
	}
}

func TestStoreList(t *testing.T) {
	c := startObjServer(t)
	if _, err := c.Put("b", "alpha", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for _, bucket := range []string{"b", "missing"} {
		if resp, _ := request(t, c, http.MethodGet, "", bucket); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET bucket %q: %s, want 405", bucket, resp.Status)
		}
	}
}

// Every header the range parser used to accept or refuse gets the same
// answer: 200 and the whole object.
func TestParseRange(t *testing.T) {
	c := startObjServer(t)
	payload := bytes.Repeat([]byte("0123456789"), 10)
	if _, err := c.Put("b", "blob", payload); err != nil {
		t.Fatal(err)
	}
	for _, hdr := range []string{
		"bytes=0-9", "bytes=90-", "bytes=-10", "bytes=0-1000", "bytes=-1000", "bytes=100-",
		"bytes=5-2", "bytes=0-9,20-29", "bits=0-9", "bytes=x-y", "bytes=-0",
	} {
		resp, body := request(t, c, http.MethodGet, hdr, "b", "blob")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
			t.Errorf("Range %q: %s with %d bytes, want 200 and all %d", hdr, resp.Status, len(body), len(payload))
		}
	}
}

func TestEndToEndRangeGet(t *testing.T) {
	c := startObjServer(t)
	payload := []byte("0123456789abcdefghij")
	if _, err := c.Put("b", "blob", payload); err != nil {
		t.Fatal(err)
	}
	resp, body := request(t, c, http.MethodGet, "bytes=5-9", "b", "blob")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("ranged GET: %s with %q, want 200 and the whole object", resp.Status, body)
	}
	if resp.Header.Get("Content-Range") != "" || resp.Header.Get("Accept-Ranges") != "" {
		t.Fatalf("response advertises ranges: %v", resp.Header)
	}
	if resp, _ := request(t, c, http.MethodGet, "bytes=0-0", "b", "missing"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ranged GET of a missing object: %s, want 404", resp.Status)
	}
}

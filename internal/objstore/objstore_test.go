package objstore

import (
	"bytes"
	"crypto/rand"
	"io"
	"net/http"
	"testing"
	"testing/quick"
)

// --- Store unit tests ---

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	tag, err := s.Put("bkt", "k", []byte("hello"))
	if err != nil || tag == "" {
		t.Fatalf("Put: %q, %v", tag, err)
	}
	data, ok := s.Get("bkt", "k")
	if !ok || string(data) != "hello" {
		t.Fatalf("Get = %q/%v", data, ok)
	}
}

func TestStorePutAutoCreatesBucket(t *testing.T) {
	s := NewStore()
	s.Put("auto", "k", []byte("v")) //nolint:errcheck
	// Creating the bucket afterwards finds it there: a no-op, the object stays.
	if err := s.CreateBucket("auto"); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get("auto", "k"); !ok || string(data) != "v" {
		t.Fatalf("Get = %q/%v", data, ok)
	}
}

func TestStoreIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Put("b", "k", buf) //nolint:errcheck
	buf[0] = 'X'
	got, _ := s.Get("b", "k")
	if string(got) != "abc" {
		t.Fatal("Put aliased caller's buffer")
	}
	got[0] = 'Y'
	again, _ := s.Get("b", "k")
	if string(again) != "abc" {
		t.Fatal("Get leaked internal storage")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.CreateBucket(""); err == nil {
		t.Fatal("empty bucket accepted")
	}
	if _, err := s.Put("", "k", nil); err == nil {
		t.Fatal("empty bucket accepted in Put")
	}
	if _, err := s.Put("b", "", nil); err == nil {
		t.Fatal("empty key accepted in Put")
	}
}

func TestETagIsContentHash(t *testing.T) {
	s := NewStore()
	t1, _ := s.Put("b", "a", []byte("same"))
	t2, _ := s.Put("b", "b", []byte("same"))
	t3, _ := s.Put("b", "c", []byte("different"))
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
		if _, err := s.Put("p", key, data); err != nil {
			return false
		}
		got, ok := s.Get("p", key)
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- End-to-end over HTTP ---

func startObjServer(t *testing.T) *Client {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return NewClient(addr)
}

func TestEndToEndObjectLifecycle(t *testing.T) {
	c := startObjServer(t)
	if err := c.CreateBucket("photos"); err != nil {
		t.Fatal(err)
	}
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
	if err := c.CreateBucket("b"); err != nil {
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

func TestEndToEndCreateBucketIdempotent(t *testing.T) {
	c := startObjServer(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal("re-creating bucket should succeed")
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

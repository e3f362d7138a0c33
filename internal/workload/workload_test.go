package workload

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"microfaas/internal/kvstore"
	"microfaas/internal/model"
	"microfaas/internal/mq"
	"microfaas/internal/objstore"
	"microfaas/internal/sqlstore"
)

// newBackends boots all four backing services with the fixture
// SeedStores writes, returning a ready Env and a teardown function.
func newBackends() (*Env, func(), error) {
	kv, sql, obj, broker := kvstore.NewServer(), sqlstore.NewServer(), objstore.NewServer(), mq.NewServer()
	if err := SeedStores(sql.Database(), obj.Store(), broker.Broker()); err != nil {
		return nil, nil, err
	}
	cleanup := func() { kv.Close(); sql.Close(); obj.Close(); broker.Close() }
	env := &Env{}
	var errs [4]error
	env.KVStoreAddr, errs[0] = kv.Listen("127.0.0.1:0")
	env.SQLStoreAddr, errs[1] = sql.Listen("127.0.0.1:0")
	env.ObjStoreAddr, errs[2] = serveObjects(obj)
	env.MQAddr, errs[3] = broker.Listen("127.0.0.1:0")
	if err := errors.Join(errs[:]...); err != nil {
		cleanup()
		return nil, nil, err
	}
	return env, cleanup, nil
}

// serveObjects serves obj on a fresh loopback listener, returning its
// address.
func serveObjects(obj *objstore.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	return ln.Addr().String(), obj.ServeOn(ln)
}

// startBackends is newBackends wired to a test's lifecycle.
func startBackends(t *testing.T) *Env {
	t.Helper()
	env, cleanup, err := newBackends()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return env
}

func TestRegistryMatchesModelSuite(t *testing.T) {
	// Every function in the calibrated model must have a real
	// implementation, and vice versa.
	names := Names()
	if len(names) != 17 {
		t.Fatalf("registry has %d functions, want 17", len(names))
	}
	modelled := map[string]bool{}
	for _, spec := range model.Functions() {
		modelled[spec.Name] = true
		if _, err := Get(spec.Name); err != nil {
			t.Errorf("model function %q has no implementation", spec.Name)
		}
	}
	for _, n := range names {
		if !modelled[n] {
			t.Errorf("implemented function %q missing from model", n)
		}
	}
}

func TestAllFunctionsRunAgainstRealBackends(t *testing.T) {
	env := startBackends(t)
	rng := rand.New(rand.NewSource(42))
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				args := f.GenArgs(rng)
				out, err := f.Run(env, args)
				if err != nil {
					t.Fatalf("invocation %d failed: %v", i, err)
				}
				if !json.Valid(out) {
					t.Fatalf("invocation %d returned invalid JSON: %q", i, out)
				}
			}
		})
	}
}

func TestGenArgsDeterministic(t *testing.T) {
	for _, f := range All() {
		a := f.GenArgs(rand.New(rand.NewSource(7)))
		b := f.GenArgs(rand.New(rand.NewSource(7)))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: GenArgs not deterministic for a fixed seed", f.Name)
		}
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	if _, err := Invoke(&Env{}, "Nope", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestBadArgumentsRejected(t *testing.T) {
	env := &Env{}
	for _, f := range All() {
		if _, err := f.Run(env, []byte(`{"definitely`)); err == nil {
			t.Errorf("%s accepted malformed JSON", f.Name)
		}
	}
}

func TestNetworkFunctionsFailCleanlyWithoutBackends(t *testing.T) {
	env := &Env{} // no services configured
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"RedisInsert", "RedisUpdate", "SQLSelect",
		"SQLUpdate", "COSGet", "COSPut", "MQProduce", "MQConsume"} {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(env, f.GenArgs(rng)); err == nil {
			t.Errorf("%s succeeded with no backend configured", name)
		}
	}
}

// --- Per-function behaviour ---

func TestCascSHAKnownAnswer(t *testing.T) {
	out, err := runCascSHA(nil, []byte(`{"rounds":1,"seed":"abc"}`))
	if err != nil {
		t.Fatal(err)
	}
	var res cascadeResult
	json.Unmarshal(out, &res) //nolint:errcheck
	// sha256("abc")
	want := "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if res.Digest != want {
		t.Fatalf("digest = %s, want %s", res.Digest, want)
	}
}

func TestCascMD5KnownAnswer(t *testing.T) {
	out, err := runCascMD5(nil, []byte(`{"rounds":1,"seed":"abc"}`))
	if err != nil {
		t.Fatal(err)
	}
	var res cascadeResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Digest != "900150983cd24fb0d6963f7d28e17f72" {
		t.Fatalf("digest = %s", res.Digest)
	}
}

func TestCascadeIsDeterministicAndDeepens(t *testing.T) {
	run := func(rounds int) string {
		out, err := runCascSHA(nil, []byte(fmt.Sprintf(`{"rounds":%d,"seed":"x"}`, rounds)))
		if err != nil {
			t.Fatal(err)
		}
		var res cascadeResult
		json.Unmarshal(out, &res) //nolint:errcheck
		return res.Digest
	}
	if run(10) != run(10) {
		t.Fatal("cascade not deterministic")
	}
	if run(10) == run(11) {
		t.Fatal("extra round did not change the digest")
	}
}

func TestFloatOpsRejectsNonPositive(t *testing.T) {
	if _, err := runFloatOps(nil, []byte(`{"iterations":0}`)); err == nil {
		t.Fatal("accepted zero iterations")
	}
}

func TestMatMulDeterministicChecksum(t *testing.T) {
	args := []byte(`{"n":16,"seed":99}`)
	out1, err := runMatMul(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := runMatMul(nil, args)
	if !bytes.Equal(out1, out2) {
		t.Fatal("MatMul not deterministic")
	}
	if _, err := runMatMul(nil, []byte(`{"n":0,"seed":1}`)); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := runMatMul(nil, []byte(`{"n":99999,"seed":1}`)); err == nil {
		t.Fatal("accepted oversized n")
	}
}

func TestHTMLGenProducesParseableRows(t *testing.T) {
	out, err := runHTMLGen(nil, []byte(`{"title":"T","rows":5,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var res htmlGenResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Bytes != len(res.HTML) {
		t.Fatal("byte count disagrees with body")
	}
	if got := bytes.Count([]byte(res.HTML), []byte("<tr>")); got != 5 {
		t.Fatalf("row count = %d, want 5", got)
	}
}

func TestHTMLGenEscapesInput(t *testing.T) {
	out, err := runHTMLGen(nil, []byte(`{"title":"<script>alert(1)</script>","rows":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var res htmlGenResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if bytes.Contains([]byte(res.HTML), []byte("<script>")) {
		t.Fatal("HTML injection not escaped")
	}
}

func TestAES128RoundTripVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, _ := Get("AES128")
	out, err := f.Run(nil, f.GenArgs(rng))
	if err != nil {
		t.Fatal(err)
	}
	var res aesResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if !res.OK {
		t.Fatal("encrypt/decrypt cascade corrupted the plaintext")
	}
}

func TestAES128RejectsBadKey(t *testing.T) {
	if _, err := runAES128(nil, []byte(`{"rounds":1,"key":"zz","data":""}`)); err == nil {
		t.Fatal("accepted bad key")
	}
	if _, err := runAES128(nil, []byte(`{"rounds":1,"key":"00112233445566778899aabbccddeeff","data":"%%%"}`)); err == nil {
		t.Fatal("accepted bad base64 data")
	}
}

func TestDecompressRecoversOriginal(t *testing.T) {
	original := []byte("the quick brown fox jumps over the lazy dog, repeatedly: " +
		"the quick brown fox jumps over the lazy dog")
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.BestCompression)
	w.Write(original) //nolint:errcheck
	w.Close()         //nolint:errcheck
	args := mustJSON(decompressArgs{Data: base64.StdEncoding.EncodeToString(buf.Bytes())})
	out, err := runDecompress(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	var res decompressResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Bytes != len(original) {
		t.Fatalf("inflated %d bytes, want %d", res.Bytes, len(original))
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	args := mustJSON(decompressArgs{Data: base64.StdEncoding.EncodeToString([]byte("not deflate"))})
	if _, err := runDecompress(nil, args); err == nil {
		t.Fatal("accepted non-DEFLATE data")
	}
}

func TestRegExSearchCountsEmails(t *testing.T) {
	args := mustJSON(regexArgs{
		Pattern: `[a-z0-9]+@[a-z]+\.[a-z]+`,
		Text:    "contact a@b.com or c99@d.org; not-an-email@",
	})
	out, err := runRegExSearch(nil, args)
	if err != nil {
		t.Fatal(err)
	}
	var res regexSearchResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Count != 2 {
		t.Fatalf("count = %d, want 2", res.Count)
	}
}

func TestRegExMatchBothWays(t *testing.T) {
	yes, err := runRegExMatch(nil, mustJSON(regexArgs{Pattern: `^a+b$`, Text: "aaab"}))
	if err != nil {
		t.Fatal(err)
	}
	no, _ := runRegExMatch(nil, mustJSON(regexArgs{Pattern: `^a+b$`, Text: "zzz"}))
	var r1, r2 regexMatchResult
	json.Unmarshal(yes, &r1) //nolint:errcheck
	json.Unmarshal(no, &r2)  //nolint:errcheck
	if !r1.Matched || r2.Matched {
		t.Fatalf("matched = %v/%v, want true/false", r1.Matched, r2.Matched)
	}
}

func TestRegExRejectsBadPattern(t *testing.T) {
	if _, err := runRegExSearch(nil, mustJSON(regexArgs{Pattern: `([`, Text: "x"})); err == nil {
		t.Fatal("accepted bad pattern")
	}
	if _, err := runRegExMatch(nil, mustJSON(regexArgs{Pattern: `([`, Text: "x"})); err == nil {
		t.Fatal("accepted bad pattern")
	}
}

// --- Network functions against live backends ---

// recordKV puts a proxy in front of env's kvstore that keeps every byte
// clients send, in arrival order, and points env at it. The real server
// still answers.
func recordKV(t *testing.T, env *Env) func() string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	upstream := env.KVStoreAddr
	env.KVStoreAddr = ln.Addr().String()
	var mu sync.Mutex
	var sent bytes.Buffer
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srv, err := net.Dial("tcp", upstream)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(conn, srv); conn.Close() }() //nolint:errcheck
			go func() {
				buf := make([]byte, 512)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						mu.Lock()
						sent.Write(buf[:n])
						mu.Unlock()
						srv.Write(buf[:n]) //nolint:errcheck
					}
					if err != nil {
						srv.Close()
						return
					}
				}
			}()
		}
	}()
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return sent.String()
	}
}

func TestRedisInsertThenUpdateFlow(t *testing.T) {
	env := startBackends(t)
	sent := recordKV(t, env)
	out, err := runRedisInsert(env, mustJSON(kvArgs{Key: "rec:1", Value: "v1"}))
	if err != nil {
		t.Fatal(err)
	}
	var res kvResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Existed {
		t.Fatal("fresh insert reported a pre-existing key")
	}
	if _, err := runRedisUpdate(env, mustJSON(kvArgs{Key: "rec:1", Value: "v2"})); err != nil {
		t.Fatal(err)
	}
	// The store serves no reads, so the flow is checked on the wire: each
	// command was answered before the function returned, so all of them are
	// recorded. That SET overwrites is kvstore's own end-to-end test.
	want := "*3\r\n$5\r\nSETNX\r\n$5\r\nrec:1\r\n$2\r\nv1\r\n" +
		"*3\r\n$5\r\nSETNX\r\n$5\r\nrec:1\r\n$7\r\ninitial\r\n" +
		"*3\r\n$3\r\nSET\r\n$5\r\nrec:1\r\n$2\r\nv2\r\n"
	if got := sent(); got != want {
		t.Fatalf("commands sent:\n%q\nwant:\n%q", got, want)
	}
}

func TestSQLSelectFindsSeededRows(t *testing.T) {
	env := startBackends(t)
	out, err := runSQLSelect(env, mustJSON(sqlSelectArgs{Region: "us-east", MinBalance: 0, Limit: 100}))
	if err != nil {
		t.Fatal(err)
	}
	var res sqlSelectResult
	json.Unmarshal(out, &res)  //nolint:errcheck
	if res.Rows != SQLRows/4 { // four regions round-robin
		t.Fatalf("rows = %d, want %d", res.Rows, SQLRows/4)
	}
}

func TestSQLUpdateAffectsOneRow(t *testing.T) {
	env := startBackends(t)
	out, err := runSQLUpdate(env, mustJSON(sqlUpdateArgs{ID: 3, Balance: 123.45}))
	if err != nil {
		t.Fatal(err)
	}
	var res sqlUpdateResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
}

func TestCOSGetChecksumsSeededBlob(t *testing.T) {
	env := startBackends(t)
	out, err := runCOSGet(env, mustJSON(cosGetArgs{Key: cosKey(0)}))
	if err != nil {
		t.Fatal(err)
	}
	var res cosGetResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.Bytes != COSObjectBytes {
		t.Fatalf("bytes = %d, want %d", res.Bytes, COSObjectBytes)
	}
	if _, err := runCOSGet(env, mustJSON(cosGetArgs{Key: "missing"})); err == nil {
		t.Fatal("missing object fetched successfully")
	}
}

func TestCOSPutStoresRetrievableObject(t *testing.T) {
	env := startBackends(t)
	out, err := runCOSPut(env, mustJSON(cosPutArgs{Key: "up1", Bytes: 1024, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	var res cosPutResult
	json.Unmarshal(out, &res) //nolint:errcheck
	if res.ETag == "" {
		t.Fatal("no ETag returned")
	}
	c := objstore.NewClient(env.ObjStoreAddr)
	data, ok, err := c.Get(COSBucket, "up1")
	if err != nil || !ok || len(data) != 1024 {
		t.Fatalf("uploaded object: %d bytes/%v/%v", len(data), ok, err)
	}
}

// TestFillBlobMatchesRandRead holds fillBlob to the math/rand Read it
// replaced: the eight fixture blobs at full size, and every length from 0
// to 15 (whole draws, partial ones, and a last byte the previous word
// wrote) for a handful of seeds.
func TestFillBlobMatchesRandRead(t *testing.T) {
	check := func(seed int64, n int) {
		want := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(want) //nolint:errcheck // math/rand Read never fails
		got := make([]byte, n)
		fillBlob(got, seed)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d, %d bytes: fillBlob differs from rand.Read", seed, n)
		}
	}
	for i := 0; i < COSObjects; i++ {
		check(int64(1000+i), COSObjectBytes)
	}
	for n := 0; n <= 15; n++ {
		for _, seed := range []int64{0, 1, 1000, -7} {
			check(seed, n)
		}
	}
}

func TestMQProduceThenConsume(t *testing.T) {
	env := startBackends(t)
	out, err := runMQProduce(env, mustJSON(mqProduceArgs{Message: "hello"}))
	if err != nil {
		t.Fatal(err)
	}
	var pres mqProduceResult
	json.Unmarshal(out, &pres)         //nolint:errcheck
	if pres.Offset != MQSeedMessages { // appended after the seed batch
		t.Fatalf("offset = %d, want %d", pres.Offset, MQSeedMessages)
	}
	out, err = runMQConsume(env, mustJSON(mqConsumeArgs{Seed: pres.Offset}))
	if err != nil {
		t.Fatal(err)
	}
	var cres mqConsumeResult
	json.Unmarshal(out, &cres) //nolint:errcheck
	if cres.Offset != pres.Offset || cres.Body != "hello" {
		t.Fatalf("consumed %+v, want offset %d body hello", cres, pres.Offset)
	}
}

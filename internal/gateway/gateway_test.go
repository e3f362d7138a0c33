package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/core"
	"microfaas/internal/shard"
)

// front builds a gateway over orch as a plane of one shard, the way
// microfaas-live serves its cluster.
func front(t testing.TB, orch *core.Orchestrator, opts Options) *Server {
	t.Helper()
	plane, err := shard.NewPlane(orch.Runtime(), []*core.Orchestrator{orch}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(plane, opts)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// startGateway boots a 2-worker live cluster with a gateway in front.
func startGateway(t *testing.T) (base string, l *cluster.Live) {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	gw := front(t, l.Orch, Options{})
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return "http://" + addr, l
}

func postInvoke(t *testing.T, base, body string) (*http.Response, InvokeResponse) {
	t.Helper()
	resp, err := http.Post(base+"/invoke", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestInvokeSynchronous(t *testing.T) {
	base, _ := startGateway(t)
	resp, out := postInvoke(t, base, `{"function":"CascSHA","args":{"rounds":5,"seed":"gw"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if out.Error != "" || out.JobID == 0 || out.Worker == "" {
		t.Fatalf("response = %+v", out)
	}
	var digest struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(out.Output, &digest); err != nil || digest.Digest == "" {
		t.Fatalf("output = %s, %v", out.Output, err)
	}
	if out.TotalMs <= 0 {
		t.Fatal("no timings reported")
	}
}

func TestInvokeNetworkBoundFunction(t *testing.T) {
	base, _ := startGateway(t)
	resp, out := postInvoke(t, base, `{"function":"RedisInsert","args":{"key":"gw:1","value":"v"}}`)
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
}

func TestInvokeValidation(t *testing.T) {
	base, _ := startGateway(t)
	resp, _ := postInvoke(t, base, `{"args":{}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing function → %d", resp.StatusCode)
	}
	resp, _ = postInvoke(t, base, `{"function":"NoSuchFn"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown function → %d", resp.StatusCode)
	}
	resp, err := http.Post(base+"/invoke", "application/json", bytes.NewReader([]byte(`{garbage`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body → %d", resp.StatusCode)
	}
	// A body over the limit is refused with 413, one just under it is read
	// and run: the limit bounds the body, it does not shrink the arguments.
	pad := func(n int) string {
		return `{"function":"RegExMatch","args":{"pattern":"a","text":"` + strings.Repeat("a", n) + `"}}`
	}
	resp, _ = postInvoke(t, base, pad(maxInvokeBody))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body → %d, want 413", resp.StatusCode)
	}
	resp, _ = postInvoke(t, base, pad(maxInvokeBody-128))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body just under the limit → %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(base + "/invoke")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /invoke → %d", resp.StatusCode)
	}
}

func TestInvokeFunctionErrorIs422(t *testing.T) {
	base, _ := startGateway(t)
	resp, out := postInvoke(t, base, `{"function":"MatMul","args":{"n":0}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || out.Error == "" {
		t.Fatalf("status %d, error %q", resp.StatusCode, out.Error)
	}
}

func TestFunctionsEndpoint(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 17 {
		t.Fatalf("%d functions listed", len(names))
	}
}

func TestWorkersEndpoint(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []struct {
		ID         string `json:"id"`
		QueueDepth int    `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID == "" {
		t.Fatalf("workers = %+v", out)
	}
}

func TestStatsEndpointAfterLoad(t *testing.T) {
	base, _ := startGateway(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"function":"RegExMatch","args":{"pattern":"a+","text":"aa%d"}}`, i)
			resp, err := http.Post(base+"/invoke", "application/json", bytes.NewReader([]byte(body)))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 6 || st.Errors != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Functions) != 1 || st.Functions[0].Function != "RegExMatch" {
		t.Fatalf("per-function stats = %+v", st.Functions)
	}
}

func TestHealthz(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz → %d", resp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil plane accepted")
	}
}

func TestAsyncInvokeLifecycle(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Post(base+"/invoke?async=1", "application/json",
		bytes.NewReader([]byte(`{"function":"CascSHA","args":{"rounds":5,"seed":"async"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID int64 `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.JobID == 0 {
		t.Fatalf("async submit → %d, job %d", resp.StatusCode, accepted.JobID)
	}
	// Poll until the result lands (live workers are fast, but poll anyway).
	deadline := time.Now().Add(10 * time.Second)
	var final InvokeResponse
	for {
		jr, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, accepted.JobID))
		if err != nil {
			t.Fatal(err)
		}
		if jr.StatusCode == http.StatusOK {
			if err := json.NewDecoder(jr.Body).Decode(&final); err != nil {
				t.Fatal(err)
			}
			jr.Body.Close()
			break
		}
		jr.Body.Close()
		if jr.StatusCode != http.StatusAccepted {
			t.Fatalf("poll → %d", jr.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("async result never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Error != "" || len(final.Output) == 0 {
		t.Fatalf("async result = %+v", final)
	}
	// Results are consumed on read: the second fetch is a 404.
	jr, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, accepted.JobID))
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Fatalf("second fetch → %d, want 404", jr.StatusCode)
	}
}

func TestAsyncInvokeFailureIs422OnPickup(t *testing.T) {
	base, _ := startGateway(t)
	resp, err := http.Post(base+"/invoke?async=1", "application/json",
		bytes.NewReader([]byte(`{"function":"MatMul","args":{"n":0}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID int64 `json:"job_id"`
	}
	json.NewDecoder(resp.Body).Decode(&accepted) //nolint:errcheck
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		jr, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, accepted.JobID))
		if err != nil {
			t.Fatal(err)
		}
		code := jr.StatusCode
		jr.Body.Close()
		if code == http.StatusUnprocessableEntity {
			return // failure delivered with the right status
		}
		if code != http.StatusAccepted {
			t.Fatalf("poll → %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("async failure never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobStatusValidation(t *testing.T) {
	base, _ := startGateway(t)
	for path, want := range map[string]int{
		"/jobs/abc": http.StatusBadRequest,
		"/jobs/-3":  http.StatusBadRequest,
		"/jobs/999": http.StatusNotFound,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s → %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(base+"/jobs/1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /jobs → %d", resp.StatusCode)
	}
}

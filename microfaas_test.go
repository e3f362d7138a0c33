package microfaas

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// These tests exercise the public facade exactly the way a downstream
// consumer would, end to end.

func TestPublicLiveClusterLifecycle(t *testing.T) {
	cl, err := StartLiveCluster(LiveOptions{Workers: 2, Seed: 1, Meter: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan InvocationResult, 1)
	cl.Orch.SubmitAsync("CascSHA", []byte(`{"rounds":3,"seed":"pub"}`),
		func(r InvocationResult) { done <- r })
	select {
	case res := <-done:
		if res.Err != "" {
			t.Fatalf("invocation failed: %s", res.Err)
		}
		var out struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(res.Output, &out); err != nil || out.Digest == "" {
			t.Fatalf("output = %s", res.Output)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("invocation never completed")
	}
}

func TestPublicGateway(t *testing.T) {
	cl, err := StartLiveCluster(LiveOptions{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gw, err := NewGateway(cl.Orch, GatewayOptions{Mode: "live"})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/invoke", "application/json",
		strings.NewReader(`{"function":"RegExMatch","args":{"pattern":"a","text":"abc"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway invoke → %d", resp.StatusCode)
	}
}

func TestPublicSimClusters(t *testing.T) {
	mf, err := NewMicroFaaSSim(4, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.RunSuite(4, nil); err != nil {
		t.Fatal(err)
	}
	if mf.Stats().Completed == 0 {
		t.Fatal("no completions")
	}
	conv, err := NewConventionalSim(4, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.RunSuite(4, nil); err != nil {
		t.Fatal(err)
	}
	// The paper's central claim through the public API:
	if mf.Stats().JoulesPerFunction >= conv.Stats().JoulesPerFunction {
		t.Fatal("MicroFaaS not more energy efficient through the public API")
	}
}

func TestPublicSuiteListings(t *testing.T) {
	if len(Functions()) != 17 || len(FunctionNames()) != 17 || len(FunctionSpecs()) != 17 {
		t.Fatal("suite listings disagree with Table I")
	}
}

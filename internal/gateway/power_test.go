package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"microfaas/internal/cluster"
	"microfaas/internal/powermgr"
)

// startManagedGateway boots a power-managed live cluster with a gateway in
// front of it.
func startManagedGateway(t *testing.T) (base string, l *cluster.Live) {
	t.Helper()
	l, err := cluster.StartLive(cluster.LiveOptions{
		Workers: 2,
		Seed:    9,
		Power:   &powermgr.Policy{IdleTimeout: time.Minute},
	})
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

func getPower(t *testing.T, base string) (int, powermgr.Status) {
	t.Helper()
	resp, err := http.Get(base + "/power")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeLonePower(t, resp)
}

// decodeLonePower reads a /power or /power/cap reply from a gateway over a
// plane of one: a one-row array naming shard-00. Any status but 200
// decodes to the zero Status.
func decodeLonePower(t *testing.T, resp *http.Response) powermgr.Status {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		return powermgr.Status{}
	}
	var rows []shardPower
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Shard != "shard-00" {
		t.Fatalf("lone /power rows = %+v, want one shard-00 row", rows)
	}
	return rows[0].Snapshot
}

func TestPowerEndpoint(t *testing.T) {
	base, _ := startManagedGateway(t)
	code, st := getPower(t, base)
	if code != http.StatusOK {
		t.Fatalf("GET /power → %d", code)
	}
	if st.Total != 2 || len(st.Nodes) != 2 {
		t.Fatalf("snapshot = %+v, want 2 nodes", st)
	}
	// The managed cluster starts fully power-gated.
	if st.Powered != 0 {
		t.Fatalf("powered at start = %d, want 0", st.Powered)
	}
	// An invocation wakes a worker; the snapshot must reflect it.
	resp, out := postInvoke(t, base, `{"function":"CascSHA","args":{"rounds":3,"seed":"pm"}}`)
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("invoke on managed cluster: status %d, %+v", resp.StatusCode, out)
	}
	if _, st = getPower(t, base); st.Powered == 0 {
		t.Fatalf("no worker powered after an invocation: %+v", st)
	}
}

func TestPowerCapEndpoint(t *testing.T) {
	base, _ := startManagedGateway(t)
	body := bytes.NewReader([]byte(`{"cap_w":3.92}`))
	resp, err := http.Post(base+"/power/cap", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /power/cap → %d", resp.StatusCode)
	}
	st := decodeLonePower(t, resp)
	if st.CapW != 3.92 || st.MaxPowered != 2 {
		t.Fatalf("snapshot after cap = %+v, want CapW 3.92 MaxPowered 2", st)
	}
	// Negative caps are rejected.
	resp2, err := http.Post(base+"/power/cap", "application/json",
		bytes.NewReader([]byte(`{"cap_w":-1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative cap → %d, want 400", resp2.StatusCode)
	}
	// So is a GET on the cap endpoint.
	resp3, err := http.Get(base + "/power/cap")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /power/cap → %d, want 405", resp3.StatusCode)
	}
}

func TestPowerEndpointDisabled(t *testing.T) {
	// A cluster with the static power policy has no manager: 404.
	base, _ := startGateway(t)
	if code, _ := getPower(t, base); code != http.StatusNotFound {
		t.Fatalf("GET /power on unmanaged cluster → %d, want 404", code)
	}
}

// TestControlBodiesAreBounded posts to the two control routes that take a
// body: one past maxInvokeBody is refused with 413, one just under it is
// read and applied.
func TestControlBodiesAreBounded(t *testing.T) {
	base, _ := startManagedGateway(t)
	for route, fields := range map[string]string{
		"/power/cap": `"cap_w":3.92`,
		"/budgets":   `"function":"CascSHA","limit_j":12.5`,
	} {
		for pad, want := range map[int]int{
			maxInvokeBody:       http.StatusRequestEntityTooLarge,
			maxInvokeBody - 128: http.StatusOK,
		} {
			body := `{"pad":"` + strings.Repeat("a", pad) + `",` + fields + `}`
			resp, err := http.Post(base+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("POST %s with a %d-byte pad → %d, want %d", route, pad, resp.StatusCode, want)
			}
		}
	}
}

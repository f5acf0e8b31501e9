package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surfnet/internal/telemetry"
)

// apiFixture mounts the service API on a test server.
func apiFixture(t *testing.T, cfg Config) (*Service, []TransferRequest, *httptest.Server) {
	t.Helper()
	svc, subs := fixture(t, cfg)
	mux := http.NewServeMux()
	svc.RegisterRoutes(mux.Handle)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return svc, subs, srv
}

func postTransfer(t *testing.T, url string, req TransferRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/transfers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPSubmitAndGet(t *testing.T) {
	svc, subs, srv := apiFixture(t, Config{})
	resp := postTransfer(t, srv.URL, subs[0])
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	var st TransferStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submitted status = %+v", st)
	}

	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(fmt.Sprintf("%s/v1/transfers/%s", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d, want 200", resp2.StatusCode)
	}
	var got TransferStatus
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted {
		t.Fatalf("state = %q, want completed", got.State)
	}
}

// TestHTTPQueueFull429RetryAfter is the satellite regression test: a bounded
// queue at capacity must shed with 429 and a Retry-After hint.
func TestHTTPQueueFull429RetryAfter(t *testing.T) {
	_, subs, srv := apiFixture(t, Config{QueueLimit: 1, Metrics: telemetry.NewRegistry()})
	resp := postTransfer(t, srv.URL, subs[0])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}
	resp2 := postTransfer(t, srv.URL, subs[1])
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" {
		t.Fatal("429 body must name the shed reason")
	}
}

func TestHTTPDraining503(t *testing.T) {
	svc, subs, srv := apiFixture(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Run(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postTransfer(t, srv.URL, subs[0])
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, _, srv := apiFixture(t, Config{})
	resp, err := http.Post(srv.URL+"/v1/transfers", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON = %d, want 400", resp.StatusCode)
	}
	resp2 := postTransfer(t, srv.URL, TransferRequest{Src: 0, Dst: 0, Messages: 1})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid transfer = %d, want 400", resp2.StatusCode)
	}
	resp3, err := http.Get(srv.URL + "/v1/transfers/t-404")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown transfer = %d, want 404", resp3.StatusCode)
	}
}

// TestHTTPBodyCapped pins the POST body cap on both admission endpoints: a
// valid body padded with whitespace to maxBodyBytes is served, and one byte
// more is a 400 with the JSON error envelope.
func TestHTTPBodyCapped(t *testing.T) {
	_, subs, srv := apiFixture(t, Config{FaultTick: -1})
	transfer, err := json.Marshal(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body []byte
		ok   int
	}{
		{"/v1/transfers", transfer, http.StatusAccepted},
		{"/v1/faults", []byte(`{"fiber_crash_prob":0.1}`), http.StatusOK},
	} {
		for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
			// JSON allows whitespace after the opening brace, so only the
			// size decides the answer.
			body := append([]byte("{"), bytes.Repeat([]byte(" "), size-len(tc.body))...)
			body = append(body, tc.body[1:]...)
			resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			decodeErr := json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			want := tc.ok
			if size > maxBodyBytes {
				want = http.StatusBadRequest
			}
			if resp.StatusCode != want {
				t.Fatalf("POST %s of %d bytes = %d, want %d", tc.path, size, resp.StatusCode, want)
			}
			if want == http.StatusBadRequest && (decodeErr != nil || eb.Error == "") {
				t.Fatalf("POST %s of %d bytes: 400 without the JSON error envelope (%v)", tc.path, size, decodeErr)
			}
		}
	}
}

// TestHTTPStrictBodies pins the admission decoders to exactly one value of
// the request's own shape. A misspelt field or a second value is a 400 with
// the JSON error envelope naming it, and nothing is admitted or armed; a body
// ending in whitespace, as curl sends it, is still served.
func TestHTTPStrictBodies(t *testing.T) {
	transfer := func(sub TransferRequest, extra string) string {
		return fmt.Sprintf(`{"src":%d,"dst":%d,"messages":1%s}`, sub.Src, sub.Dst, extra)
	}
	for _, tc := range []struct {
		name, path string
		body       func(sub TransferRequest) string
		wantErr    string // "" for a served body
	}{
		{"unknown-transfer-field", "/v1/transfers",
			func(sub TransferRequest) string { return transfer(sub, `,"retry_budgte":3`) },
			`unknown field "retry_budgte"`},
		{"two-transfer-objects", "/v1/transfers",
			func(sub TransferRequest) string { return transfer(sub, "") + transfer(sub, "") },
			"trailing data"},
		{"unknown-fault-field", "/v1/faults",
			func(TransferRequest) string { return `{"fiber_crash_prob":0.1,"fiber_repair_slot":5}` },
			`unknown field "fiber_repair_slot"`},
		{"transfer-trailing-newline", "/v1/transfers",
			func(sub TransferRequest) string { return transfer(sub, "") + "\r\n\t \n" },
			""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, subs, srv := apiFixture(t, Config{FaultTick: -1})
			resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body(subs[0])))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			decodeErr := json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if tc.wantErr == "" {
				if resp.StatusCode != http.StatusAccepted || svc.Status().Admitted != 1 {
					t.Fatalf("POST %s = %d, admitted %d; want 202 and one admission",
						tc.path, resp.StatusCode, svc.Status().Admitted)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || !strings.Contains(eb.Error, tc.wantErr) {
				t.Fatalf("POST %s = %d %q (%v), want 400 naming %q", tc.path, resp.StatusCode, eb.Error, decodeErr, tc.wantErr)
			}
			if st := svc.Status(); st.Admitted != 0 || st.QueueDepth != 0 {
				t.Fatalf("refused body admitted %d transfers (queue %d)", st.Admitted, st.QueueDepth)
			}
			if fs := svc.FaultState(); fs.Enabled {
				t.Fatalf("refused body armed the fault plane: %+v", svc.FaultProfile())
			}
		})
	}
}

func TestHTTPNetworkSnapshot(t *testing.T) {
	svc, _, srv := apiFixture(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/network")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/network = %d, want 200", resp.StatusCode)
	}
	var info NetworkInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	net := svc.Engine().Network()
	if len(info.Nodes) != net.NumNodes() || len(info.Fibers) != net.NumFibers() {
		t.Fatalf("snapshot %d nodes / %d fibers, want %d / %d",
			len(info.Nodes), len(info.Fibers), net.NumNodes(), net.NumFibers())
	}
	users := 0
	for _, n := range info.Nodes {
		if n.Role == "user" {
			users++
		}
	}
	if users == 0 {
		t.Fatal("no user nodes in snapshot")
	}
}

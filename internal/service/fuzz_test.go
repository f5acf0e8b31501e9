package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"surfnet/internal/core"
	"surfnet/internal/network"
	"surfnet/internal/routing"
)

// admissionNet is the fuzz target's network: user(0) - switch(1) - server(2)
// - user(3), plus a second user(4) on the server, so the seed corpus can name
// valid endpoints (0, 3, 4), a non-user endpoint and out-of-range IDs.
func admissionNet(tb testing.TB) *network.Network {
	tb.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 100},
		{ID: 2, Role: network.Server, Capacity: 100},
		{ID: 3, Role: network.User},
		{ID: 4, Role: network.User},
	}
	fibers := []network.Fiber{
		{ID: 0, A: 0, B: 1, Fidelity: 0.95, EntPairs: 100, EntRate: 0.8, LossProb: 0.02},
		{ID: 1, A: 1, B: 2, Fidelity: 0.95, EntPairs: 100, EntRate: 0.8, LossProb: 0.02},
		{ID: 2, A: 2, B: 3, Fidelity: 0.95, EntPairs: 100, EntRate: 0.8, LossProb: 0.02},
		{ID: 3, A: 2, B: 4, Fidelity: 0.9, EntPairs: 100, EntRate: 0.8, LossProb: 0.02},
	}
	net, err := network.New(nodes, fibers)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// FuzzHTTPAdmission drives the two admission decoders, POST /v1/transfers and
// POST /v1/faults, with arbitrary bodies through RegisterRoutes on a fresh
// in-process service per input. No epoch runs, so only admission is under
// test. The oracle:
//   - no panic;
//   - transfers answer only 202, 400 or 429 (the body is posted twice into a
//     one-slot queue, so an admitted body is shed the second time), and
//     faults answer only 200 or 400;
//   - every non-2xx reply is the JSON error envelope;
//   - an admitted deadline_ms > 0 yields a deadline after the admission time;
//   - an accepted fault profile, echoed by GET /v1/faults and POSTed back, is
//     accepted and echoes the same profile again.
func FuzzHTTPAdmission(f *testing.F) {
	eng, err := core.NewEngine(admissionNet(f), core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	pl := routing.NewPlanner(routing.DefaultParams(routing.SurfNet))
	f.Fuzz(func(t *testing.T, transfer, fault []byte) {
		svc, err := New(eng, pl, Config{FaultTick: -1, QueueLimit: 1})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		svc.RegisterRoutes(mux.Handle)
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code/100 != 2 {
				var eb errorBody
				if rec.Header().Get("Content-Type") != "application/json" ||
					json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
					t.Fatalf("%s %s = %d without the JSON error envelope: %q", method, path, rec.Code, rec.Body)
				}
			}
			return rec
		}

		for i := 0; i < 2; i++ {
			rec := do("POST", "/v1/transfers", transfer)
			switch rec.Code {
			case http.StatusAccepted:
				checkAdmittedDeadline(t, svc, transfer, rec.Body.Bytes())
			case http.StatusBadRequest, http.StatusTooManyRequests:
			default:
				t.Fatalf("POST /v1/transfers = %d: %s", rec.Code, rec.Body)
			}
		}

		rec := do("POST", "/v1/faults", fault)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		default:
			t.Fatalf("POST /v1/faults = %d: %s", rec.Code, rec.Body)
		}
		first := echoedProfile(t, do("GET", "/v1/faults", nil))
		rec = do("POST", "/v1/faults", first)
		if rec.Code != http.StatusOK {
			t.Fatalf("re-POST of the echoed profile %s = %d: %s", first, rec.Code, rec.Body)
		}
		if again := echoedProfile(t, rec); !bytes.Equal(again, first) {
			t.Fatalf("echo changed across a round trip:\nfirst %s\nagain %s", first, again)
		}
	})
}

// checkAdmittedDeadline checks that an admitted transfer asking for a
// deadline got one after its admission time. body is decoded the way the
// handler decodes it; reply is the 202 status.
func checkAdmittedDeadline(t *testing.T, svc *Service, body, reply []byte) {
	t.Helper()
	var req TransferRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("admitted a body that does not decode: %v", err)
	}
	var st TransferStatus
	if err := json.Unmarshal(reply, &st); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	tr := svc.transfers[st.ID]
	svc.mu.Unlock()
	if tr == nil {
		t.Fatalf("admitted transfer %q is unknown", st.ID)
	}
	if req.DeadlineMs > 0 && !tr.deadline.After(tr.submitted) {
		t.Fatalf("deadline_ms %d admitted at %v gave deadline %v", req.DeadlineMs, tr.submitted, tr.deadline)
	}
}

// echoedProfile returns the raw "profile" of a 200 /v1/faults reply.
func echoedProfile(t *testing.T, rec *httptest.ResponseRecorder) json.RawMessage {
	t.Helper()
	var info struct {
		Profile json.RawMessage `json:"profile"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &info) != nil || info.Profile == nil {
		t.Fatalf("fault echo = %d: %s", rec.Code, rec.Body)
	}
	return info.Profile
}

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"surfnet/internal/faults"
)

// API is the service's HTTP/JSON surface:
//
//	POST /v1/transfers             admit a transfer (202; 429 shed +
//	                               Retry-After; 503 draining; 400 invalid)
//	GET  /v1/transfers/{id}        transfer status (200; 404 unknown)
//	GET  /v1/transfers/{id}/trace  flight timeline + latency attribution
//	                               (200; 404 unknown)
//	GET  /v1/network               network snapshot (nodes, fibers, roles)
//	GET  /v1/faults                live fault-plane snapshot + armed scenario
//	POST /v1/faults                swap the live fault scenario (200; 400)
//	GET  /debug/bundle             one-shot incident snapshot (status,
//	                               metrics, faults, last-N terminal flights)
//
// Every non-2xx response under /v1/ carries the JSON error envelope — a
// catch-all turns the mux's bare 404s on unmatched /v1/ paths into it too.
// A POST body is a 400 when it is longer than maxBodyBytes, names a field
// its type does not have, or holds anything but whitespace after its first
// JSON value.
//
// RegisterRoutes mounts these on any mux-like mount function — in the
// daemon, the obs.Server's mux, so the ops plane and the serving plane share
// one listener.
func (s *Service) RegisterRoutes(mount func(pattern string, h http.Handler)) {
	mount("POST /v1/transfers", http.HandlerFunc(s.handleSubmit))
	mount("GET /v1/transfers/{id}", http.HandlerFunc(s.handleGet))
	mount("GET /v1/transfers/{id}/trace", http.HandlerFunc(s.handleTrace))
	mount("GET /v1/network", http.HandlerFunc(s.handleNetwork))
	mount("GET /v1/faults", http.HandlerFunc(s.handleGetFaults))
	mount("POST /v1/faults", http.HandlerFunc(s.handleSetFaults))
	mount("GET /debug/bundle", http.HandlerFunc(s.handleBundle))
	mount("/v1/", http.HandlerFunc(handleNotFound))
}

// handleNotFound keeps unmatched /v1/ paths on the JSON error envelope
// instead of the mux's bare text 404. (Method mismatches on registered /v1/
// paths land here too, as 404s — the envelope wins over 405 fidelity.)
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusNotFound, errorBody{Error: "service: no such endpoint: " + r.Method + " " + r.URL.Path})
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes caps a POST body. A transfer request takes under 200 bytes,
// and 64 KiB holds a fault script of some 4 000 outages.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes of
// it; the error is the 400 response's message. The body must be exactly one
// value of v's shape: an unknown field (a misspelt "retry_budget" would
// otherwise admit a transfer with no budget) or a second value is refused,
// while trailing whitespace such as curl's newline is not.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("invalid JSON: trailing data after the first value: %w", err)
	default:
		return errors.New("invalid JSON: trailing data after the first value")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req TransferRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	st, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Shed: the queue drains one epoch at a time, so the observed epoch
		// wall-clock p50 is the right client backoff hint.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.Trace(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Service) handleBundle(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Bundle())
}

// FaultInfo is the GET /v1/faults (and POST /v1/faults success) response.
type FaultInfo struct {
	State   FaultState     `json:"state"`
	Profile faults.Profile `json:"profile"`
}

// faultInfo snapshots the plane and its armed profile.
func (s *Service) faultInfo() FaultInfo {
	return FaultInfo{State: s.FaultState(), Profile: s.FaultProfile()}
}

func (s *Service) handleGetFaults(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.faultInfo())
}

// handleSetFaults decodes a faults.Profile — its JSON form, with the scripted
// timetable in the -fault-script flag syntax — and arms it in place of the
// current scenario; an empty object clears all injected faults.
func (s *Service) handleSetFaults(w http.ResponseWriter, r *http.Request) {
	var profile faults.Profile
	if err := decodeBody(w, r, &profile); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := s.SetFaultProfile(profile); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.faultInfo())
}

// NetworkInfo is the GET /v1/network response.
type NetworkInfo struct {
	Nodes  []NodeInfo  `json:"nodes"`
	Fibers []FiberInfo `json:"fibers"`
}

// NodeInfo describes one node.
type NodeInfo struct {
	ID       int    `json:"id"`
	Role     string `json:"role"`
	Capacity int    `json:"capacity,omitempty"`
}

// FiberInfo describes one fiber.
type FiberInfo struct {
	ID       int     `json:"id"`
	A        int     `json:"a"`
	B        int     `json:"b"`
	Fidelity float64 `json:"fidelity"`
	EntPairs int     `json:"ent_pairs"`
}

func (s *Service) handleNetwork(w http.ResponseWriter, r *http.Request) {
	net := s.eng.Network()
	info := NetworkInfo{}
	for i := 0; i < net.NumNodes(); i++ {
		n := net.Node(i)
		info.Nodes = append(info.Nodes, NodeInfo{
			ID: n.ID, Role: n.Role.String(), Capacity: n.Capacity,
		})
	}
	for i := 0; i < net.NumFibers(); i++ {
		f := net.Fiber(i)
		info.Fibers = append(info.Fibers, FiberInfo{
			ID: f.ID, A: f.A, B: f.B, Fidelity: f.Fidelity, EntPairs: f.EntPairs,
		})
	}
	writeJSON(w, http.StatusOK, info)
}

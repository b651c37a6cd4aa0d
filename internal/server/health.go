package server

import (
	"net/http"
)

// HealthPayload is the document GET /healthz serves: liveness plus the
// load signals a cluster router needs for health-aware routing. It is
// served with status 200 while the process accepts work and 503 the
// moment draining begins — the flip happens before the listener closes,
// so a router polling /healthz stops routing to a replica before its
// connections start dying.
//
// The router's /v1/cluster document shows the load fields per replica:
// InFlight + Queued is the queueing signal, and CacheEntries,
// WarmEntries and CacheHits describe how warm this replica's rewrite
// cache is.
type HealthPayload struct {
	// Status is "ok" or "draining"; Draining is the same bit for
	// programmatic consumers.
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// InFlight counts HTTP requests currently inside the handlers;
	// ComputeInFlight and Queued are the admission gate's occupancy
	// (zero when the engine is ungated); Shed is the gate's lifetime
	// shed counter — the saturation signal.
	InFlight        int64 `json:"inflight"`
	ComputeInFlight int64 `json:"computeInflight"`
	Queued          int64 `json:"queued"`
	Shed            int64 `json:"shed"`
	// Warm-cache state: in-memory rewrite-cache entries, persistent
	// warm-tier entries, and lifetime cache hits.
	CacheEntries int   `json:"cacheEntries"`
	WarmEntries  int   `json:"warmEntries,omitempty"`
	CacheHits    int64 `json:"cacheHits"`
}

// Health returns the current health payload.
func (s *Service) Health() HealthPayload {
	st := s.eng.Stats()
	gs := s.eng.Gate().Stats()
	hp := HealthPayload{
		Status:          "ok",
		Draining:        s.draining.Load(),
		InFlight:        s.inflight.Load(),
		ComputeInFlight: gs.InFlight,
		Queued:          gs.Queued,
		Shed:            gs.Shed,
		CacheEntries:    st.CacheEntries,
		WarmEntries:     st.WarmEntries,
		CacheHits:       st.CacheHits + st.CacheWarmHits,
	}
	if hp.Draining {
		hp.Status = "draining"
	}
	return hp
}

// StartDraining flips /healthz to 503 ("draining"). Call it the moment
// shutdown begins, before http.Server.Shutdown stops accepting
// connections: a router that probes health stops sending new work while
// in-flight requests still complete normally. Draining is one-way.
func (s *Service) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// handleHealth serves the health payload: 200 while accepting work,
// 503 once draining. The body is identical in both cases so probers
// always get the load fields.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hp := s.Health()
	code := http.StatusOK
	if hp.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, code, hp)
}

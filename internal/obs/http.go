package obs

import (
	"net/http"
	"net/http/pprof"
)

// MetricsHandler returns an http.Handler that serves the registry in
// Prometheus text format.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Headers are already out; nothing useful left to do.
			return
		}
	})
}

// NewMux returns a ServeMux with the conventional observability endpoints:
// GET /metrics (Prometheus text) and GET /healthz (always "ok" — the
// process is healthy if it can answer).
func (r *Registry) NewMux() *http.ServeMux {
	return r.NewMuxWithStatus(nil)
}

// NewMuxWithStatus is NewMux with a full health probe: when status reports
// not-ok, GET /healthz answers 503 with the status message as the body (e.g.
// "draining", "degraded: ..."), while /metrics stays scrapeable. A nil
// status means always healthy.
func (r *Registry) NewMuxWithStatus(status func() (ok bool, msg string)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if status != nil {
			if ok, msg := status(); !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(msg + "\n"))
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

// RegisterPprof mounts the net/http/pprof handlers on mux under
// /debug/pprof/, matching what importing net/http/pprof does to
// http.DefaultServeMux — without touching the default mux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

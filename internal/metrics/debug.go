package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// debugMux builds the live-introspection HTTP mux served by
// voronet-node's -debug-addr listener:
//
//	GET /metrics        — one JSON Snapshot merged over all sources
//	GET /debug/pprof/*  — the standard net/http/pprof handlers
//	GET /healthz        — 200 "ok"
//
// sources are snapshotted and merged in order at request time, so one
// process can expose several registries (node + transport endpoint)
// through a single endpoint. Nil sources are skipped.
func debugMux(sources ...func() Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		merged := Snapshot{}
		for _, src := range sources {
			if src == nil {
				continue
			}
			merged.Merge(src())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(merged)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug listener; Close shuts it down.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts an HTTP debug listener on addr ("127.0.0.1:0" picks
// a free port) serving debugMux(sources...). It returns once the
// listener is bound; serving continues in a background goroutine.
func ServeDebug(addr string, sources ...func() Snapshot) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           debugMux(sources...),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (d *DebugServer) Close() error { return d.srv.Close() }

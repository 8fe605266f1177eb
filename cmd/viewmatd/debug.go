package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"viewmat/internal/core"
)

// debugHandler serves the -debug-addr listener: net/http/pprof under
// /debug/pprof/, and under /debug/vars expvar's JSON — the process's
// published vars (cmdline, memstats) and "viewmat", what the engine
// already keeps: its Health, the meter's stats by phase (Breakdown), its
// AdvisorStats and, on a durable engine (walSyncs non-nil), the WAL's
// sync count. Everything it serves is read; it keeps no counter of its
// own and charges the meter nothing. The engine's object stays out of
// expvar's process-wide registry, where a name is published once per
// process, so each handler serves its own engine.
func debugHandler(db *core.Database, walSyncs func() int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n%q: %s", "viewmat", engineVars(db, walSyncs))
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
		})
		fmt.Fprintf(w, "\n}\n")
	})
	return mux
}

// engineVars renders the engine's state as one JSON object; a value JSON
// cannot carry (a NaN in an advisor estimate) turns the object into an
// error message rather than break the document.
func engineVars(db *core.Database, walSyncs func() int) []byte {
	vars := map[string]any{
		"health":    db.Health(),
		"breakdown": db.Breakdown(),
		"advisor":   db.AdvisorStats(),
	}
	if walSyncs != nil {
		vars["wal_syncs"] = walSyncs()
	}
	out, err := json.Marshal(vars)
	if err != nil {
		out, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return out
}

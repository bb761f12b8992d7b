package service

import (
	"encoding/json"
	"net/http"
	"time"

	"nostop/internal/engine"
)

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// configJSON is the wire form of engine.Config.
type configJSON struct {
	BatchIntervalMs int64 `json:"batchIntervalMs"`
	NumExecutors    int   `json:"numExecutors"`
	BlockIntervalMs int64 `json:"blockIntervalMs,omitempty"`
}

func toConfigJSON(c engine.Config) configJSON {
	return configJSON{
		BatchIntervalMs: c.BatchInterval.Milliseconds(),
		NumExecutors:    c.Executors,
		BlockIntervalMs: c.BlockInterval.Milliseconds(),
	}
}

func (c configJSON) config() engine.Config {
	return engine.Config{
		BatchInterval: time.Duration(c.BatchIntervalMs) * time.Millisecond,
		Executors:     c.NumExecutors,
		BlockInterval: time.Duration(c.BlockIntervalMs) * time.Millisecond,
	}
}

// boundsJSON is the wire form of engine.Bounds.
type boundsJSON struct {
	MinIntervalMs int64 `json:"minIntervalMs"`
	MaxIntervalMs int64 `json:"maxIntervalMs"`
	MinExecutors  int   `json:"minExecutors"`
	MaxExecutors  int   `json:"maxExecutors"`
	MinBlockMs    int64 `json:"minBlockMs,omitempty"`
	MaxBlockMs    int64 `json:"maxBlockMs,omitempty"`
}

func toBoundsJSON(b engine.Bounds) boundsJSON {
	return boundsJSON{
		MinIntervalMs: b.MinInterval.Milliseconds(),
		MaxIntervalMs: b.MaxInterval.Milliseconds(),
		MinExecutors:  b.MinExecutors,
		MaxExecutors:  b.MaxExecutors,
		MinBlockMs:    b.MinBlock.Milliseconds(),
		MaxBlockMs:    b.MaxBlock.Milliseconds(),
	}
}

func (b boundsJSON) bounds() engine.Bounds {
	return engine.Bounds{
		MinInterval:  time.Duration(b.MinIntervalMs) * time.Millisecond,
		MaxInterval:  time.Duration(b.MaxIntervalMs) * time.Millisecond,
		MinExecutors: b.MinExecutors, MaxExecutors: b.MaxExecutors,
		MinBlock: time.Duration(b.MinBlockMs) * time.Millisecond,
		MaxBlock: time.Duration(b.MaxBlockMs) * time.Millisecond,
	}
}

// configResponse is the GET /config reply the controller proxy handshakes
// with before constructing the SPSA core.
type configResponse struct {
	Config configJSON `json:"config"`
	Bounds boundsJSON `json:"bounds"`
}

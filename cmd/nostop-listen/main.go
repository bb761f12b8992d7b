// Command nostop-listen runs a NoStop-tuned simulation paced against wall
// clock (time-compressed) while serving the streaming listener's JSON
// status over HTTP — a live demo of the Fig 4 architecture.
//
//	nostop-listen -addr :8080 -speedup 60 &
//	curl localhost:8080/status
//	curl localhost:8080/batches?last=5
//	curl localhost:8080/batches/latest
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/fleet"
	"nostop/internal/listener"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		wlName  = flag.String("workload", "wordcount", "workload: logreg, linreg, wordcount, pageanalyze")
		seedN   = flag.Uint64("seed", 1, "root random seed")
		speedup = flag.Float64("speedup", 60, "virtual seconds simulated per wall second")
		horizon = flag.Duration("horizon", 24*time.Hour, "virtual duration before the demo stops")
	)
	flag.Parse()
	if err := run(*addr, *wlName, *seedN, *speedup, *horizon); err != nil {
		fmt.Fprintln(os.Stderr, "nostop-listen:", err)
		os.Exit(1)
	}
}

func run(addr, wlName string, seedN uint64, speedup float64, horizon time.Duration) error {
	if speedup <= 0 {
		return fmt.Errorf("speedup %v must be positive", speedup)
	}
	seed := rng.New(seedN)
	wl, err := workload.New(wlName)
	if err != nil {
		return err
	}
	min, max := wl.RateBand()
	reg := metrics.NewRegistry()
	var col *listener.Collector
	det, err := fleet.Assemble(fleet.Setup{
		Workload:   wl,
		Trace:      ratetrace.NewUniformBand(min, max, 5*time.Second, seed.Split("trace")),
		Seed:       seed,
		Controller: fleet.ControllerNoStop,
	}, fleet.Observe{Metrics: reg, Attach: func(eng *engine.Engine) (err error) {
		col, err = listener.NewCollector(eng, 0)
		return err
	}})
	if err != nil {
		return err
	}
	col.SetRegistry(reg)
	clock, ctl := det.Engine.Clock(), det.Controller.(*core.Controller)

	// The simulation kernel is single-threaded; advance it in one
	// goroutine under a mutex shared with the HTTP handlers (the
	// Collector has its own lock, but /status also reads the engine).
	var mu sync.Mutex
	go func() {
		const step = 200 * time.Millisecond
		ticker := time.NewTicker(step)
		defer ticker.Stop()
		for range ticker.C {
			mu.Lock()
			next := clock.Now() + sim.Time(float64(step)*speedup)
			if next > sim.Time(horizon) {
				next = sim.Time(horizon)
			}
			clock.RunUntil(next)
			done := clock.Now() >= sim.Time(horizon)
			mu.Unlock()
			if done {
				return
			}
		}
	}()

	mux := http.NewServeMux()
	col.Mount(mux)
	// Note: the surrounding lockMiddleware already holds the simulation
	// lock for every request, so handlers read controller state directly.
	mux.HandleFunc("GET /controller", func(w http.ResponseWriter, r *http.Request) {
		body := fmt.Sprintf(`{"phase":%q,"iterations":%d,"pauses":%d,"resets":%d,"drains":%d,"configureSteps":%d,"estimate":%q,"virtualTime":%.1f}`+"\n",
			ctl.Phase().String(), len(ctl.Iterations()), ctl.Pauses(), ctl.Resets(),
			ctl.Drains(), ctl.ConfigureSteps(), ctl.Estimate().String(), clock.Now().Seconds())
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	})

	fmt.Printf("nostop-listen: %s at %.0fx speed on %s (endpoints: /status /batches /batches/latest /controller)\n",
		wl.Name(), speedup, addr)
	srv := &http.Server{
		Addr:              addr,
		Handler:           lockMiddleware(&mu, mux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	// Serve until SIGINT/SIGTERM, then drain in-flight status reads before
	// exiting, so a curl mid-scrape never sees a reset connection.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("nostop-listen: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// lockMiddleware serialises HTTP reads against simulation advancement.
func lockMiddleware(mu *sync.Mutex, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

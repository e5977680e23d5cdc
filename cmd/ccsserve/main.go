// Command ccsserve runs the mining HTTP service.
//
//	ccsserve -addr :8080 [-ops-addr :9090] [-data name=path ...]
//
// Datasets given with -data are preloaded; more can be uploaded or
// generated over the API (see internal/server for the endpoint list).
// -ops-addr starts a second listener with the operator surface —
// /metrics (Prometheus text), /debug/traces, /debug/vars, and
// /debug/pprof — kept off the public port on purpose; bind it to a
// loopback or otherwise private address.
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests get -shutdown-timeout to drain, and the process
// exits 0 on a clean drain.
//
// Example session:
//
//	ccsserve -addr :8080 &
//	curl -X POST localhost:8080/v1/datasets/demo:generate \
//	     -d '{"method":2,"baskets":10000,"items":200,"seed":1}'
//	curl -X POST localhost:8080/v1/mine \
//	     -d '{"dataset":"demo","algo":"bms++","query":"max(price) <= 50"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ccs/internal/dataset"
	"ccs/internal/server"
	"ccs/internal/tidlist"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsserve:", err)
		os.Exit(1)
	}
}

// dataFlags collects repeated -data name=path flags.
type dataFlags []string

func (d *dataFlags) String() string     { return strings.Join(*d, ",") }
func (d *dataFlags) Set(v string) error { *d = append(*d, v); return nil }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccsserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	opsAddr := fs.String("ops-addr", "", "operator listen address serving /metrics, /debug/traces, /debug/vars, and /debug/pprof (empty = disabled); keep it off the public network")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a request, headers plus body (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 5*time.Minute, "max time to write a response (0 = unlimited)")
	mineTimeout := fs.Duration("mine-timeout", time.Minute, "wall-clock budget per mining request; exceeding it returns the completed levels with truncated=true (0 = unlimited)")
	workers := fs.Int("workers", 0, "default level-engine worker count per mining request (0 = GOMAXPROCS, 1 = serial); a request can override with its workers field")
	backendFlag := fs.String("backend", "auto", "default TID-list representation of the vertical index per mining request: auto (choose by dataset density), dense, or compressed; a request can override with its backend field")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "drain deadline for in-flight requests on SIGINT/SIGTERM")
	maxInflight := fs.Int("max-inflight", 0, "mining requests served concurrently; beyond it requests queue and overflow is answered 429 with Retry-After (0 = admission control off)")
	queueDepth := fs.Int("queue-depth", 0, "requests allowed to wait for an admission slot before arrivals are rejected outright (needs -max-inflight)")
	queueWait := fs.Duration("queue-wait", 0, "longest one request may wait in the admission queue; a nearer request deadline wins (needs -max-inflight)")
	sloP99 := fs.Duration("slo-p99", 0, "target p99 latency of /v1/mine; a recent p99 above it escalates load shedding (0 = occupancy-driven shedding only)")
	tenantQuotas := fs.String("tenant-quotas", "", "JSON file of per-tenant rate limits and work budgets (see DESIGN.md §12); empty = no quotas")
	var data dataFlags
	fs.Var(&data, "data", "preload dataset as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	backend, err := tidlist.ParseBackend(*backendFlag)
	if err != nil {
		return err
	}
	opts := []server.Option{server.WithMineTimeout(*mineTimeout), server.WithWorkers(*workers), server.WithBackend(backend)}
	if *maxInflight > 0 {
		opts = append(opts, server.WithAdmission(server.AdmissionConfig{
			MaxInFlight:  *maxInflight,
			QueueDepth:   *queueDepth,
			MaxQueueWait: *queueWait,
			SLOP99:       *sloP99,
		}))
	}
	if *tenantQuotas != "" {
		cfg, err := server.LoadQuotaFile(*tenantQuotas)
		if err != nil {
			return err
		}
		opts = append(opts, server.WithQuotas(cfg))
	}
	srv := server.New(opts...)
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-data wants name=path, got %q", spec)
		}
		db, err := dataset.ReadFile(path)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		srv.AddDataset(name, db)
		fmt.Fprintf(out, "loaded %s: %d baskets, %d items\n", name, db.NumTx(), db.NumItems())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s\n", ln.Addr())

	// The ops surface runs on its own listener: pprof and the trace ring
	// expose internals that must not share a port with the public API.
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			//ccslint:ignore droppederr best-effort cleanup while failing startup
			_ = ln.Close()
			return fmt.Errorf("ops listener: %w", err)
		}
		opsSrv := &http.Server{
			Handler: srv.OpsHandler(func() map[string]interface{} {
				return map[string]interface{}{
					"addr":     ln.Addr().String(),
					"ops_addr": opsLn.Addr().String(),
				}
			}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(out, "ops server: %v\n", err)
			}
		}()
		//ccslint:ignore droppederr ops listener teardown on exit is best-effort
		defer opsSrv.Close()
		fmt.Fprintf(out, "ops listening on %s\n", opsLn.Addr())
	}
	return serve(ctx, httpSrv, ln, *shutdownTimeout, out)
}

// serve runs httpSrv on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests get drain to finish,
// and a clean drain returns nil. Separated from run so tests can inject a
// listener and a cancelable context.
func serve(ctx context.Context, httpSrv *http.Server, ln net.Listener, drain time.Duration, out io.Writer) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; a closed listener is the only benign case.
		if errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "shutting down, draining for up to %v\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		// The drain deadline passed with requests still in flight; close
		// them hard so the process can exit.
		//ccslint:ignore droppederr best-effort close after a failed drain
		_ = httpSrv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(out, "drained, exiting")
	return nil
}

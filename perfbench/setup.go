package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/server"
)

// env is one set-up system: the seeded warehouse with its tracked views,
// served by server.New with the default Config on a loopback listener,
// and a wire client limited to numClients connections.
type env struct {
	sys       *aggview.System
	srv       *server.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *server.Client
	calls     int // initial Calls rows
}

// setup builds and serves a fresh system and runs the workload's
// warm-up requests through it, so plans are cached and lazy state is
// built before anything is timed.
func setup(ctx context.Context, w *workload, seed int64) (*env, error) {
	sys := aggview.New()
	sys.Catalog = datagen.TelcoCatalog()
	sys.AdoptDB(datagen.Telco(datagen.TelcoConfig{
		Calls: numCalls, Customers: numCustomers, Plans: numPlans, Seed: seed,
	}), "Calls", "Calling_Plans", "Customer")
	for _, v := range views {
		if err := sys.DefineView(v.name, v.sql); err != nil {
			return nil, fmt.Errorf("define %s: %w", v.name, err)
		}
		if _, err := sys.TrackViewContext(ctx, v.name); err != nil {
			return nil, fmt.Errorf("materialize %s: %w", v.name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{
		sys:       sys,
		srv:       server.New(sys, server.Config{}),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: numClients, MaxIdleConnsPerHost: numClients, DisableCompression: true},
		calls:     numCalls,
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &server.Client{Base: "http://" + ln.Addr().String(), Tenant: "bench", HTTP: &http.Client{Transport: e.transport}}
	for _, o := range warmOps(w, seed) {
		if _, err := e.client.Query(ctx, o.sql); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %q: %w", o.sql, err)
		}
	}
	return e, nil
}

// close stops the listener, waits for the server goroutine to return,
// and detaches the server from its system.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.transport.CloseIdleConnections()
	e.srv.Close()
	return err
}

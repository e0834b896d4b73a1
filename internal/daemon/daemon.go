// Package daemon is the process shell shared by cic-gatewayd and
// cic-routerd: the -out NDJSON sink, the slog logger, the -fault-spec
// leg wrappers, the ingest/pub/debug listeners, the addr-file and the
// SIGINT/SIGTERM drain. Each daemon keeps only its own flags and the
// construction of the Service it runs.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cic"
	"cic/internal/fault"
	"cic/internal/server"
)

// Service is what Run serves: *server.Server and *cluster.Router.
type Service interface {
	Serve(ln net.Listener) error
	ServePub(ln net.Listener) error
	Ready() error
	Shutdown(ctx context.Context) error
}

// shutdownTimeout bounds the drain after a signal.
const shutdownTimeout = 30 * time.Second

// Sink is a daemon's NDJSON output: a server.Fanout over the -out
// destination, plus the file it owns (if any).
type Sink struct {
	*server.Fanout
	file *os.File
}

// OpenSink opens the -out destination: "" for none, "-" for stdout,
// anything else a file path (created or truncated).
func OpenSink(out string) (*Sink, error) {
	switch out {
	case "":
		return &Sink{Fanout: server.NewFanout()}, nil
	case "-":
		return &Sink{Fanout: server.NewFanout(os.Stdout)}, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	return &Sink{Fanout: server.NewFanout(f), file: f}, nil
}

// Close detaches every subscriber, then closes the -out file. It is
// idempotent.
func (s *Sink) Close() error {
	err := s.Fanout.Close()
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
		s.file = nil
	}
	return err
}

// Logger builds the structured logger from -log-level, -log-format and
// -quiet. A nil logger means silent.
func Logger(level, format string, quiet bool) (*slog.Logger, error) {
	if quiet {
		return nil, nil
	}
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level: unknown level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
}

// FaultLegs parses -fault-spec (the per-leg grammar of internal/fault)
// into one net.Conn wrapper per entry of legs, in the same order, nil
// for a leg without a plan; legs lists the legs daemon name has, and a
// spec for any other leg is an error. Each wrapper numbers its own leg's
// connections for the schedule, and every injected event increments
// server_faults_injected on m. An empty spec wraps nothing.
func FaultLegs(name, spec string, m *cic.Metrics, legs ...string) ([]func(net.Conn) net.Conn, error) {
	wrap := make([]func(net.Conn) net.Conn, len(legs))
	if spec == "" {
		return wrap, nil
	}
	ms, err := fault.ParseMultiSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("-fault-spec: %w", err)
	}
	faults := m.Counter(server.MetricFaultsInjected)
	for _, sp := range ms {
		i := slices.Index(legs, sp.LegName())
		if i < 0 {
			return nil, fmt.Errorf("-fault-spec: leg %q is not a %s leg (want %s)",
				sp.LegName(), name, strings.Join(legs, " or "))
		}
		var idx atomic.Int64
		wrap[i] = func(c net.Conn) net.Conn {
			sched := sp.Schedule(int(idx.Add(1) - 1))
			if len(sched.Read) == 0 && len(sched.Write) == 0 {
				return c
			}
			return fault.WrapConn(c, sched, func(fault.Event) { faults.Inc() })
		}
	}
	fmt.Fprintf(os.Stderr, "%s: FAULT INJECTION ACTIVE (%s) — dev use only\n", name, spec)
	return wrap, nil
}

// ServeDebug binds addr, serves h on it in the background and prints
// the bound address: a busy port is an error, and ":0" reports the real
// port. Closing the returned listener stops serving.
func ServeDebug(name, addr string, h http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	go func() {
		if err := http.Serve(ln, h); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", name, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s/metrics\n", name, ln.Addr())
	return ln, nil
}

// Options configure one Run.
type Options struct {
	// Name prefixes every stderr line ("cic-gatewayd").
	Name string
	// Banner is the startup line's format; its one %s is the bound
	// ingest address ("ingesting on %s").
	Banner string
	// Listen, Pub and DebugAddr are the ingest, NDJSON subscriber and
	// debug listen addresses; "" disables Pub and DebugAddr.
	Listen, Pub, DebugAddr string
	// AddrFile, when set, receives the bound ingest, pub and debug
	// addresses, one per line, an empty line for each one disabled.
	AddrFile string
	// Metrics and Flight back the debug endpoint (Flight may be nil).
	Metrics *cic.Metrics
	Flight  *cic.FlightRecorder
	// Sink is closed once the service has drained.
	Sink *Sink
}

// Run binds the listeners, serves svc until SIGINT/SIGTERM arrives or
// a serve loop returns, then drains: svc.Shutdown bounded by 30 s, then
// the sink closes (it is closed on every return). The signals are caught
// before anything is bound, so a signal sent once the addr-file exists
// always drains. The debug endpoint serves cic.DebugHandler plus
// /healthz (liveness) and /readyz (svc.Ready).
func Run(svc Service, o Options) error {
	defer o.Sink.Close()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	dataLn, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return err
	}
	defer dataLn.Close()
	var pubLn net.Listener
	pubAddr := ""
	if o.Pub != "" {
		if pubLn, err = net.Listen("tcp", o.Pub); err != nil {
			return err
		}
		defer pubLn.Close()
		pubAddr = pubLn.Addr().String()
	}
	dbgAddr := ""
	if o.DebugAddr != "" {
		dbgLn, err := ServeDebug(o.Name, o.DebugAddr, debugMux(svc, o))
		if err != nil {
			return err
		}
		defer dbgLn.Close()
		dbgAddr = dbgLn.Addr().String()
	}
	if o.AddrFile != "" {
		if err := os.WriteFile(o.AddrFile, []byte(dataLn.Addr().String()+"\n"+pubAddr+"\n"+dbgAddr+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, o.Name+": "+o.Banner, dataLn.Addr())
	if pubAddr != "" {
		fmt.Fprintf(os.Stderr, ", publishing on %s", pubAddr)
	}
	fmt.Fprintln(os.Stderr)

	errc := make(chan error, 2)
	go func() { errc <- svc.Serve(dataLn) }()
	if pubLn != nil {
		go func() { errc <- svc.ServePub(pubLn) }()
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "%s: %v — draining\n", o.Name, sig)
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := o.Sink.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: drained\n", o.Name)
	return nil
}

// debugMux is the daemon debug endpoint.
func debugMux(svc Service, o Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", cic.DebugHandler(o.Metrics, o.Flight))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		if err := svc.Ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

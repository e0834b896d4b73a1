package daemon_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cic"
	"cic/internal/cluster"
	"cic/internal/daemon"
	"cic/internal/server"
)

// Both daemons' services run on the shell unchanged.
var (
	_ daemon.Service = (*server.Server)(nil)
	_ daemon.Service = (*cluster.Router)(nil)
)

// TestOpenSinkModes: "" publishes nowhere, "-" to stdout, a path to a
// created file that Close flushes and closes; an uncreatable path fails.
func TestOpenSinkModes(t *testing.T) {
	dir := t.TempDir()
	rec := server.Record{Station: "s1", Payload: "abcd"}

	none, err := daemon.OpenSink("")
	if err != nil {
		t.Fatal(err)
	}
	none.Publish(rec)
	if err := none.Close(); err != nil {
		t.Fatal(err)
	}

	stdoutPath := filepath.Join(dir, "stdout")
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = stdout
	dash, err := daemon.OpenSink("-")
	os.Stdout = orig
	if err != nil {
		t.Fatal(err)
	}
	dash.Publish(rec)
	if err := dash.Close(); err != nil {
		t.Fatal(err)
	}
	stdout.Close()

	path := filepath.Join(dir, "out.ndjson")
	file, err := daemon.OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	file.Publish(rec)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	for _, p := range []string{stdoutPath, path} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"station":"s1"`; strings.Count(string(data), want) != 1 {
			t.Errorf("%s = %q, want one record with %s", filepath.Base(p), data, want)
		}
	}
	if _, err := daemon.OpenSink(filepath.Join(dir, "missing", "out.ndjson")); err == nil {
		t.Error("OpenSink under a missing directory succeeded")
	}
}

func TestLogger(t *testing.T) {
	for _, tc := range []struct {
		level, format string
		quiet         bool
		wantErr       string // "" = accepted
		wantNil       bool
	}{
		{level: "info", format: "text"},
		{level: "WARNING", format: "JSON"},
		{level: "debug", format: "json"},
		{level: "verbose", format: "text", wantErr: "-log-level"},
		{level: "info", format: "xml", wantErr: "-log-format"},
		{level: "verbose", format: "xml", quiet: true, wantNil: true},
	} {
		lg, err := daemon.Logger(tc.level, tc.format, tc.quiet)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Logger(%q, %q) error = %v, want %s rejection", tc.level, tc.format, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("Logger(%q, %q): %v", tc.level, tc.format, err)
		case (lg == nil) != tc.wantNil:
			t.Errorf("Logger(%q, %q, quiet=%v) = %v, want nil %v", tc.level, tc.format, tc.quiet, lg, tc.wantNil)
		}
	}
}

func TestFaultLegsValidation(t *testing.T) {
	reg := cic.NewMetrics()
	if wrap, err := daemon.FaultLegs("cic-gatewayd", "", reg, "client"); err != nil || len(wrap) != 1 || wrap[0] != nil {
		t.Errorf("empty spec = %v, %v; want one nil wrapper", wrap, err)
	}
	if _, err := daemon.FaultLegs("cic-gatewayd", "leg=upstream;drop@10", reg, "client"); err == nil ||
		!strings.Contains(err.Error(), `leg "upstream" is not a cic-gatewayd leg`) {
		t.Errorf("gatewayd leg=upstream error = %v", err)
	}
	if _, err := daemon.FaultLegs("cic-routerd", "leg=backend;drop@10", reg, "client", "upstream"); err == nil {
		t.Error("routerd accepted leg=backend")
	}
	if _, err := daemon.FaultLegs("cic-gatewayd", "bogus@1", reg, "client"); err == nil ||
		!strings.HasPrefix(err.Error(), "-fault-spec: ") {
		t.Errorf("malformed spec error = %v", err)
	}
	wrap, err := daemon.FaultLegs("cic-routerd", "drop@10|leg=upstream;drop@20", reg, "client", "upstream")
	if err != nil {
		t.Fatal(err)
	}
	if len(wrap) != 2 || wrap[0] == nil || wrap[1] == nil {
		t.Errorf("routerd wrappers = %v, want client and upstream", wrap)
	}
	wrap, err = daemon.FaultLegs("cic-routerd", "leg=upstream;drop@20", reg, "client", "upstream")
	if err != nil {
		t.Fatal(err)
	}
	if len(wrap) != 2 || wrap[0] != nil || wrap[1] == nil {
		t.Errorf("upstream-only spec wrappers = %v, want upstream alone", wrap)
	}
}

// TestFaultLegsCountInjected: a fault fired through a leg wrapper lands
// on server_faults_injected.
func TestFaultLegsCountInjected(t *testing.T) {
	reg := cic.NewMetrics()
	wrap, err := daemon.FaultLegs("cic-gatewayd", "corrupt@2:0x20", reg, "client")
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	conn := wrap[0](b)
	defer conn.Close()
	go func() { a.Write([]byte("abcdef")) }()
	got := make([]byte, 6)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abCdef" {
		t.Errorf("read %q, want byte 2 corrupted to %q", got, "abCdef")
	}
	if n := reg.Snapshot().Counters[server.MetricFaultsInjected]; n != 1 {
		t.Errorf("%s = %d, want 1", server.MetricFaultsInjected, n)
	}
}

// TestServeDebugBusyAddress: a taken -debug-addr port is an error, not
// a log line; ":0" reports the bound port.
func TestServeDebugBusyAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	h := http.NotFoundHandler()
	if dl, err := daemon.ServeDebug("test", ln.Addr().String(), h); err == nil {
		dl.Close()
		t.Fatal("ServeDebug on a busy address succeeded")
	} else if !strings.HasPrefix(err.Error(), "-debug-addr: ") {
		t.Errorf("error = %v, want a -debug-addr error", err)
	}
	dl, err := daemon.ServeDebug("test", "127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	if strings.HasSuffix(dl.Addr().String(), ":0") {
		t.Errorf("bound address %s, want the real port", dl.Addr())
	}
}

// fakeService accepts and drops connections until its listener closes
// or stop closes (then Serve returns nil, which starts Run's drain),
// reports the readiness error held in ready, and publishes one record
// to sink as its drain.
type fakeService struct {
	ready atomic.Pointer[error]
	stop  chan struct{}
	sink  *server.Fanout
}

func newFakeService() *fakeService { return &fakeService{stop: make(chan struct{})} }

func (f *fakeService) Serve(ln net.Listener) error {
	errc := make(chan error, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			c.Close()
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-f.stop:
		return nil
	}
}

func (f *fakeService) ServePub(ln net.Listener) error { return f.Serve(ln) }

func (f *fakeService) Ready() error {
	if p := f.ready.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *fakeService) Shutdown(context.Context) error {
	f.sink.Publish(server.Record{Station: "drain"})
	return nil
}

// startRun runs svc on the shell with loopback :0 listeners and an -out
// file at out, and waits for its addr-file.
func startRun(t *testing.T, svc *fakeService, out string, pub, debug bool) (lines []string, done chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	sink, err := daemon.OpenSink(out)
	if err != nil {
		t.Fatal(err)
	}
	svc.sink = sink.Fanout
	o := daemon.Options{
		Name:     "test",
		Banner:   "serving on %s",
		Listen:   "127.0.0.1:0",
		AddrFile: addrFile,
		Metrics:  cic.NewMetrics(),
		Sink:     sink,
	}
	if pub {
		o.Pub = "127.0.0.1:0"
	}
	if debug {
		o.DebugAddr = "127.0.0.1:0"
	}
	done = make(chan error, 1)
	go func() { done <- daemon.Run(svc, o) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && strings.Count(string(data), "\n") == 3 {
			return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"), done
		}
		select {
		case err := <-done:
			t.Fatalf("Run returned before writing the addr-file: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the addr-file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wait fails the test unless Run returns nil within 10 s.
func wait(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRunDebugEndpointAndAddrFile: the addr-file carries the ingest,
// pub and debug addresses; /healthz is 200, /readyz is 503 with the
// Ready error text until the service is ready; SIGTERM, sent as soon as
// the addr-file exists, drains through Shutdown before the -out file
// closes.
func TestRunDebugEndpointAndAddrFile(t *testing.T) {
	svc := newFakeService()
	shedding := errors.New("shedding: session limit reached (2/2)")
	svc.ready.Store(&shedding)
	out := filepath.Join(t.TempDir(), "out.ndjson")
	lines, done := startRun(t, svc, out, true, true)
	for i, l := range lines {
		if _, port, err := net.SplitHostPort(l); err != nil || port == "0" {
			t.Errorf("addr-file line %d = %q, want a bound host:port", i+1, l)
		}
	}
	for _, addr := range lines[:2] {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("dial %s: %v", addr, err)
			continue
		}
		c.Close()
	}
	base := "http://" + lines[2]
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, base+"/readyz"); code != http.StatusServiceUnavailable || body != shedding.Error()+"\n" {
		t.Errorf("/readyz = %d %q, want 503 %q", code, body, shedding)
	}
	svc.ready.Store(nil)
	if code, body := get(t, base+"/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("ready /readyz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics = %d, want 200", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wait(t, done)
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), `"station":"drain"`) {
		t.Errorf("-out after the drain = %q, %v; want the record Shutdown published", data, err)
	}
}

// TestRunAddrFileDisabledListeners: a disabled pub or debug listener
// leaves its addr-file line empty; a serve loop that returns nil drains
// the run like a signal.
func TestRunAddrFileDisabledListeners(t *testing.T) {
	svc := newFakeService()
	out := filepath.Join(t.TempDir(), "out.ndjson")
	lines, done := startRun(t, svc, out, false, false)
	if lines[0] == "" || lines[1] != "" || lines[2] != "" {
		t.Errorf("addr-file lines = %q, want ingest then two empty lines", lines)
	}
	close(svc.stop)
	wait(t, done)
	if data, err := os.ReadFile(out); err != nil || !strings.Contains(string(data), `"station":"drain"`) {
		t.Errorf("-out after the drain = %q, %v; want the record Shutdown published", data, err)
	}
}

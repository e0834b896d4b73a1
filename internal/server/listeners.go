package server

import (
	"context"
	"errors"
	"net"
	"sync"
)

// Listeners runs a daemon's accept loops — Server's and cluster.Router's
// — and shuts them down: stop accepting, close the connections handed
// to handlers, and wait for the handlers.
type Listeners struct {
	mu       sync.Mutex
	closed   bool
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{} // connections whose handler is running
	handlers sync.WaitGroup
}

// Serve accepts connections on ln and runs handle for each on its own
// goroutine, until Shutdown (Serve then returns nil) or an Accept failure.
func (l *Listeners) Serve(ln net.Listener, handle func(net.Conn)) error {
	return l.accept(ln, func(conn net.Conn) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.handlers.Add(1)
		go func() {
			defer l.handlers.Done()
			handle(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	})
}

// ServePub accepts NDJSON subscriber connections on ln and attaches each
// to sink, until Shutdown or an Accept failure.
func (l *Listeners) ServePub(ln net.Listener, sink *Fanout) error {
	return l.accept(ln, sink.AddSubscriber)
}

func (l *Listeners) accept(ln net.Listener, each func(net.Conn)) error {
	l.mu.Lock()
	closed := l.closed
	if !closed {
		if l.lns == nil {
			l.lns, l.conns = map[net.Listener]struct{}{}, map[net.Conn]struct{}{}
		}
		l.lns[ln] = struct{}{}
	}
	l.mu.Unlock()
	if closed {
		ln.Close()
		return errors.New("server: already shut down")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.closed {
				return nil
			}
			return err
		}
		each(conn)
	}
}

// Shutdown stops accepting, runs flush, then closes every connection
// Serve handed to a handler, so each handler winds its session down, and
// waits for the handlers — all bounded by ctx.
func (l *Listeners) Shutdown(ctx context.Context, flush func()) error {
	l.mu.Lock()
	l.closed = true
	for ln := range l.lns {
		ln.Close()
	}
	l.mu.Unlock()
	done := make(chan struct{})
	go func() {
		flush()
		l.mu.Lock()
		for conn := range l.conns {
			conn.Close()
		}
		l.mu.Unlock()
		l.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

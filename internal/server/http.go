package server

import (
	"context"
	"errors"
	"net"
	"net/http"
)

// StartHTTP binds srv.Addr (":0" picks a free port), serves it on a
// background goroutine, and returns the bound address plus a stop
// function that drains gracefully: Shutdown stops accepting, waits for
// in-flight requests up to the stop context's deadline, and the serve
// goroutine's exit is always collected — the helper can never leave a
// listener or a serving goroutine behind. obdaqd's SIGTERM path drains
// through it.
func StartHTTP(srv *http.Server) (addr string, stop func(ctx context.Context) error, err error) {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func(ctx context.Context) error {
		shutErr := srv.Shutdown(ctx)
		serveErr := <-done
		if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return shutErr
	}
	return ln.Addr().String(), stop, nil
}

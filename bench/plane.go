package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rpeer/internal/host"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// tenant is the one tenant every run serves; reqHeader carries the
// benchmark's request ID (and the client span) to the server-side span.
const (
	tenant    = "w"
	reqHeader = "X-Bench-Req"
)

// client is one keep-alive connection to the plane. The benchmark
// never holds more than two, the core count it was sized for.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

// clientTimeout bounds one request, so a wedged plane fails the run
// instead of hanging it.
const clientTimeout = 30 * time.Second

func newClient() *client {
	return &client{hc: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and reads the whole response. The body is the
// client's buffer: valid until its next call.
func (c *client) do(method, url string, body []byte, req uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if req != 0 {
		r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// instance is one running serving plane: the tenant host, its HTTP
// front end, and a loopback listener.
type instance struct {
	h      *host.Host
	hs     *serve.HostServer
	srv    *http.Server
	base   string // URL prefix of the tenant's routes
	served chan error
}

var quiet = log.New(io.Discard, "", 0)

// startPlane brings the production front end up over a data dir: a
// host whose tenant loads the world file on first touch, behind
// serve.NewHost on a loopback port. wrap, when set, wraps the handler
// (the traced run's server-side spans).
func startPlane(dir, rpw string, opts []rpi.Option, wrap func(http.Handler) http.Handler) (*instance, error) {
	h, err := host.Open(host.Config{
		Dir:     dir,
		Inputs:  func(host.TenantSpec) (rpi.Inputs, error) { return worldfile.Load(rpw) },
		Options: opts,
		Logger:  quiet, // one open line per start is noise at eight starts a run
	})
	if err != nil {
		return nil, err
	}
	// A recovered dir already lists the tenant in its manifest.
	if err := h.Create(host.TenantSpec{Name: tenant}); err != nil && !errors.Is(err, host.ErrTenantExists) {
		h.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	hs := serve.NewHost(h, "", serve.Config{})
	var handler http.Handler = hs
	if wrap != nil {
		handler = wrap(hs)
	}
	in := &instance{
		h: h, hs: hs, srv: &http.Server{Handler: handler},
		base:   "http://" + ln.Addr().String() + "/v1/t/" + tenant + "/",
		served: make(chan error, 1),
	}
	go func() { in.served <- in.srv.Serve(ln) }()
	return in, nil
}

// stop shuts the listener, waits for the serve loop, and closes the
// host (which publishes the engine's final snapshot).
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := in.h.Close(); err == nil {
		err = cerr
	}
	return err
}

// engine returns the tenant's live engine, for the checks and probes
// that read it in-process.
func (in *instance) engine() (*rpi.Engine, error) {
	l, err := in.h.Lease(context.Background(), tenant)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	if eng := l.Guard().Engine(); eng != nil {
		return eng, nil
	}
	return nil, errors.New("tenant has no engine")
}

// getOK fetches one route and insists on a 200, returning a copy of the
// body.
func getOK(c *client, url string, req uint64) ([]byte, error) {
	status, body, err := c.do(http.MethodGet, url, nil, req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, status, bytes.TrimSpace(body))
	}
	return append([]byte(nil), body...), nil
}

// crashImage builds the recover workload's on-disk state: a plane that
// snapshots every 8 deltas takes 15 acknowledged applies, and its data
// dir is copied as it stands, as if the process died right after the
// 15th acknowledgement. The image holds a snapshot at seq 8 and a
// 7-record log tail. It returns the report bytes served at seq 15.
func crashImage(w *world, live, image string) ([]byte, error) {
	in, err := startPlane(live, w.rpw, []rpi.Option{rpi.WithSnapshotEvery(8)}, nil)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	want, err := func() ([]byte, error) {
		for seq := uint64(0); seq < recoverSeq; seq++ {
			_, body := w.delta(seq)
			status, resp, err := c.do(http.MethodPost, in.base+"apply", body, 0)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("crash image: apply %d: %d %s", seq+1, status, bytes.TrimSpace(resp))
			}
		}
		want, err := getOK(c, in.base+"infer", 0)
		if err != nil {
			return nil, err
		}
		return want, copyDir(live, image)
	}()
	if serr := in.stop(); err == nil {
		err = serr
	}
	return want, err
}

// recoverSeq is the acknowledged sequence number the crash image holds.
const recoverSeq = 15

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

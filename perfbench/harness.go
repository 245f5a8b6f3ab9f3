package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"pseudosphere/internal/cluster"
	"pseudosphere/internal/serve"
)

// node is one serve.New server behind a loopback listener in this
// process, with the directories it owns.
type node struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dirs   []string
	served sync.WaitGroup
}

// nodeDirs makes fresh store (and optionally job) directories under root.
func nodeDirs(root string, jobs bool) (storeDir, jobDir string, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", "", err
	}
	if storeDir, err = os.MkdirTemp(root, "store-"); err != nil {
		return "", "", err
	}
	if jobs {
		if jobDir, err = os.MkdirTemp(root, "jobs-"); err != nil {
			os.RemoveAll(storeDir)
			return "", "", err
		}
	}
	return storeDir, jobDir, nil
}

// startNode boots a server from cfg on ln (a fresh loopback listener
// when nil). It takes ownership of the directories named in cfg.
func startNode(cfg serve.Config, ln net.Listener) (*node, error) {
	dirs := []string{cfg.StoreDir}
	if cfg.JobDir != "" {
		dirs = append(dirs, cfg.JobDir)
	}
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			removeAll(dirs)
			return nil, err
		}
	}
	cfg.Log = log.New(io.Discard, "", 0)
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		removeAll(dirs)
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dirs: dirs}
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		n.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return n, nil
}

// shutdownGrace bounds a node's graceful HTTP shutdown. Every request is
// over when a node closes, but a shutdown also waits on connections that
// never carried a request (a peer's spare dial) until they are five
// seconds old.
const shutdownGrace = 100 * time.Millisecond

// close drains the HTTP server, closes the service, waits for the serve
// goroutine and removes the node's directories.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.srv.Abort()
		n.hs.Close()
	}
	n.served.Wait()
	n.srv.Close()
	removeAll(n.dirs)
}

func removeAll(dirs []string) {
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// startFleet boots size replicas sharing one ring, each with its own
// store, delegating and reading through to each other.
func startFleet(root string, size, workers int) ([]*node, error) {
	lns := make([]net.Listener, size)
	peers := make([]string, size)
	dirs := make([]string, size)
	// release frees the listeners and directories of replicas from on.
	release := func(from int) {
		for i := from; i < size; i++ {
			if lns[i] != nil {
				lns[i].Close()
			}
			if dirs[i] != "" {
				os.RemoveAll(dirs[i])
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			lns[i], peers[i] = ln, "http://"+ln.Addr().String()
			dirs[i], _, err = nodeDirs(root, false)
		}
		if err != nil {
			release(0)
			return nil, err
		}
	}
	var nodes []*node
	for i := range lns {
		n, err := startNode(serve.Config{
			StoreDir: dirs[i],
			Workers:  workers,
			Cluster:  &serve.ClusterConfig{Self: peers[i], Peers: peers},
		}, lns[i])
		if err != nil {
			// startNode has released replica i's listener and directory.
			closeAll(nodes)
			release(i + 1)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// ringOf is the ring replicas at peers share: the server's, with its
// default virtual node count.
func ringOf(peers []string) *cluster.Ring {
	ring := cluster.NewRing(0)
	ring.Add(peers...)
	return ring
}

func urlsOf(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.url
	}
	return out
}

func closeAll(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// newClient returns an HTTP client holding at most conns connections per
// host.
func newClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}
}

// response is what a request returned.
type response struct {
	status int
	cache  string
	body   []byte
}

func send(client *http.Client, base string, r request) (response, error) {
	var req *http.Request
	var err error
	if r.Method == "POST" {
		req, err = http.NewRequest("POST", base+r.Path, bytes.NewReader(r.Body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest("GET", base+r.Path, nil)
	}
	if err != nil {
		return response{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, nil
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Counters map[string]uint64 `json:"counters"`
}

func fetchMetrics(client *http.Client, base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// counterDelta returns after-before for every counter in after.
func counterDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func addCounters(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

// jobStatus is the part of a job status the benchmark reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
}

// runJob submits spec, polls the job to a terminal state, and fetches the
// result body.
func runJob(client *http.Client, base string, spec []byte, poll time.Duration) (jobStatus, []byte, error) {
	var st jobStatus
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return st, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	for {
		time.Sleep(poll)
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return st, nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return st, nil, err
		}
		switch st.State {
		case "done":
			r, err := send(client, base, request{Method: "GET", Path: "/v1/jobs/" + st.ID + "/result"})
			if err != nil {
				return st, nil, err
			}
			if r.status != http.StatusOK {
				return st, nil, fmt.Errorf("result: status %d", r.status)
			}
			return st, r.body, nil
		case "failed", "cancelled":
			return st, nil, errors.New("job " + st.State + ": " + st.Error)
		}
	}
}

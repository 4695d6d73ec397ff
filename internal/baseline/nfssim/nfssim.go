// Package nfssim is the NFS baseline of the paper's evaluation: a single
// kernel-integrated file server. It is modeled as one node with one NIC and
// one disk, a very low per-operation cost (NFS is "highly optimized for
// small I/O operations and tightly integrated with the OS kernel", §4.1.1),
// a per-byte server cost that caps its data throughput around the measured
// ~8 MB/s, and a write-back cache (no synchronous disk writes).
//
// It deliberately has none of Sorrento's distribution: no replication, no
// migration, no failure handling — its single NIC is the bottleneck that
// Figures 10–12 show.
package nfssim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/fsapi"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ServerNode is the NFS server's node ID.
const ServerNode wire.NodeID = "nfs"

// Config tunes the server model.
type Config struct {
	// OpCost is the fixed per-request server cost (paper's sub-ms ops).
	OpCost time.Duration
	// ByteCost is the per-byte server processing cost; 125 ns/B caps the
	// server at ≈8 MB/s as measured in Figure 11.
	ByteCost time.Duration
	// CacheBytes is the write-back cache size; reads beyond it charge the
	// disk. Zero means a large default.
	CacheBytes int64
}

// DefaultConfig matches the paper's measurements.
func DefaultConfig() Config {
	return Config{
		OpCost:     300 * time.Microsecond,
		ByteCost:   125 * time.Nanosecond,
		CacheBytes: 512 << 20,
	}
}

// RPC message types (registered for the TCP transport as well).
type (
	reqCreate struct{ Path string }
	reqMkdir  struct{ Path string }
	reqRemove struct{ Path string }
	reqLookup struct{ Path string }
	reqRead   struct {
		Path string
		Off  int64
		N    int64
	}
	reqWrite struct {
		Path string
		Off  int64
		Data []byte
	}
	respGeneric struct {
		OK   bool
		Err  string
		Size int64
	}
	respRead struct {
		OK   bool
		Err  string
		Data []byte
	}
)

// WireSize implements wire.Sizer so the fabric charges data transfer time.
func (m reqWrite) WireSize() int { return 96 + len(m.Data) }

// WireSize implements wire.Sizer.
func (m respRead) WireSize() int { return 96 + len(m.Data) }

// Server is the NFS server daemon.
type Server struct {
	cfg  Config
	cpu  *simtime.Resource
	disk *disk.Disk

	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewServer joins the fabric as ServerNode.
func NewServer(clock *simtime.Clock, cfg Config, network transport.Network, d *disk.Disk) (*Server, error) {
	def := DefaultConfig()
	if cfg.OpCost <= 0 {
		cfg.OpCost = def.OpCost
	}
	if cfg.ByteCost <= 0 {
		cfg.ByteCost = def.ByteCost
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	s := &Server{
		cfg:   cfg,
		cpu:   simtime.NewResource(clock, "nfs/cpu"),
		disk:  d,
		files: make(map[string][]byte),
		dirs:  map[string]bool{"/": true},
	}
	if _, err := network.Join(ServerNode, serverHandler{s}); err != nil {
		return nil, err
	}
	return s, nil
}

type serverHandler struct{ s *Server }

func (h serverHandler) HandleCast(wire.NodeID, any) {}

func (h serverHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	s := h.s
	switch m := req.(type) {
	case reqCreate:
		s.charge(0)
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.files[m.Path]; ok {
			return respGeneric{Err: "exists"}, nil
		}
		s.files[m.Path] = nil
		return respGeneric{OK: true}, nil
	case reqMkdir:
		s.charge(0)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.dirs[m.Path] = true
		return respGeneric{OK: true}, nil
	case reqRemove:
		s.charge(0)
		s.mu.Lock()
		defer s.mu.Unlock()
		data, ok := s.files[m.Path]
		if !ok {
			return respGeneric{Err: "not found"}, nil
		}
		delete(s.files, m.Path)
		s.disk.Free(int64(len(data)))
		return respGeneric{OK: true}, nil
	case reqLookup:
		s.charge(0)
		s.mu.Lock()
		defer s.mu.Unlock()
		data, ok := s.files[m.Path]
		if !ok {
			return respGeneric{Err: "not found"}, nil
		}
		return respGeneric{OK: true, Size: int64(len(data))}, nil
	case reqRead:
		s.charge(m.N)
		s.mu.Lock()
		data, ok := s.files[m.Path]
		if !ok {
			s.mu.Unlock()
			return respRead{Err: "not found"}, nil
		}
		if m.Off >= int64(len(data)) {
			s.mu.Unlock()
			return respRead{OK: true}, nil
		}
		end := m.Off + m.N
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		out := append([]byte(nil), data[m.Off:end]...)
		total := int64(len(data))
		s.mu.Unlock()
		// Datasets beyond the cache hit the disk (Figure 11's workloads
		// deliberately exceed memory).
		if s.uncached(total) {
			s.disk.Read(int64(len(out)))
		}
		return respRead{OK: true, Data: out}, nil
	case reqWrite:
		s.charge(int64(len(m.Data)))
		s.mu.Lock()
		data := s.files[m.Path]
		end := m.Off + int64(len(m.Data))
		var grown int64
		if end > int64(len(data)) {
			grown = end - int64(len(data))
			nb := make([]byte, end)
			copy(nb, data)
			data = nb
		}
		copy(data[m.Off:end], m.Data)
		s.files[m.Path] = data
		total := int64(len(data))
		s.mu.Unlock()
		if grown > 0 {
			if err := s.disk.Alloc(grown); err != nil {
				return respGeneric{Err: err.Error()}, nil
			}
		}
		// Write-back: large working sets force synchronous-ish flushes.
		if s.uncached(total) {
			s.disk.Write(int64(len(m.Data)))
		}
		return respGeneric{OK: true, Size: end}, nil
	default:
		return nil, fmt.Errorf("nfssim: unknown request %T", req)
	}
}

// uncached reports whether the server's working set exceeds its cache.
func (s *Server) uncached(fileSize int64) bool {
	return s.disk.Used() > s.cfg.CacheBytes
}

func (s *Server) charge(bytes int64) {
	s.cpu.Use(s.cfg.OpCost + time.Duration(bytes)*s.cfg.ByteCost)
}

// FS is a client mount of the NFS baseline. It implements fsapi.System.
type FS struct {
	ep      transport.Endpoint
	timeout time.Duration
}

// NewFS attaches a client named name to the server.
func NewFS(name string, network transport.Network) (*FS, error) {
	ep, err := network.Join(wire.NodeID(name), nullHandler{})
	if err != nil {
		return nil, err
	}
	return &FS{ep: ep, timeout: 60 * time.Second}, nil
}

type nullHandler struct{}

func (nullHandler) HandleCall(context.Context, wire.NodeID, any) (any, error) {
	return nil, transport.ErrNoHandler
}
func (nullHandler) HandleCast(wire.NodeID, any) {}

func (f *FS) call(req any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	return f.ep.Call(ctx, ServerNode, req)
}

// Name implements fsapi.System.
func (f *FS) Name() string { return "nfs" }

// Mkdir implements fsapi.System.
func (f *FS) Mkdir(path string) error {
	resp, err := f.call(reqMkdir{Path: path})
	return genErr(resp, err)
}

// Create implements fsapi.System.
func (f *FS) Create(path string) (fsapi.File, error) {
	resp, err := f.call(reqCreate{Path: path})
	if err := genErr(resp, err); err != nil {
		return nil, err
	}
	return &file{fs: f, path: path}, nil
}

// Open implements fsapi.System.
func (f *FS) Open(path string) (fsapi.File, error) { return f.open(path) }

// OpenWrite implements fsapi.System.
func (f *FS) OpenWrite(path string) (fsapi.File, error) { return f.open(path) }

func (f *FS) open(path string) (fsapi.File, error) {
	resp, err := f.call(reqLookup{Path: path})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(respGeneric)
	if !ok || !r.OK {
		return nil, errors.New("nfssim: " + r.Err)
	}
	return &file{fs: f, path: path, size: r.Size}, nil
}

// Remove implements fsapi.System.
func (f *FS) Remove(path string) error {
	resp, err := f.call(reqRemove{Path: path})
	return genErr(resp, err)
}

func genErr(resp any, err error) error {
	if err != nil {
		return err
	}
	r, ok := resp.(respGeneric)
	if !ok {
		return fmt.Errorf("nfssim: unexpected response %T", resp)
	}
	if !r.OK {
		return errors.New("nfssim: " + r.Err)
	}
	return nil
}

type file struct {
	fs   *FS
	path string
	mu   sync.Mutex
	size int64
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	resp, err := h.fs.call(reqRead{Path: h.path, Off: off, N: int64(len(p))})
	if err != nil {
		return 0, err
	}
	r, ok := resp.(respRead)
	if !ok || !r.OK {
		return 0, errors.New("nfssim: read: " + r.Err)
	}
	n := copy(p, r.Data)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *file) WriteAt(p []byte, off int64) (int, error) {
	resp, err := h.fs.call(reqWrite{Path: h.path, Off: off, Data: p})
	if err != nil {
		return 0, err
	}
	r, ok := resp.(respGeneric)
	if !ok || !r.OK {
		return 0, errors.New("nfssim: write: " + r.Err)
	}
	h.mu.Lock()
	if r.Size > h.size {
		h.size = r.Size
	}
	h.mu.Unlock()
	return len(p), nil
}

func (h *file) Close() error { return nil }

func (h *file) Size() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

var _ fsapi.System = (*FS)(nil)

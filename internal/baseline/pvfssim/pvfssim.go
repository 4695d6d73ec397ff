// Package pvfssim is the PVFS baseline of the paper's evaluation: a
// parallel file system with one central metadata server (MDS) and N I/O
// daemons striping file data RAID-0 style. Its characteristic shapes,
// which Figures 9–12 rely on:
//
//   - Bulk I/O scales with I/O nodes and clients (striping across all
//     daemons, no replication) — slightly ahead of Sorrento on writes since
//     Sorrento commits to multiple replicas.
//   - Small-file throughput saturates early (≈64 sessions/s in Figure 10)
//     because every create/open/unlink serializes through the MDS, whose
//     per-op cost is high (each inode is a small file on the MDS).
//   - No replication, no migration, no failure handling.
package pvfssim

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

// MDSNode is the metadata server's node ID.
const MDSNode wire.NodeID = "pvfs-mds"

// IODNode names the i-th I/O daemon.
func IODNode(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("pvfs-iod%02d", i)) }

// Config tunes the deployment.
type Config struct {
	// IODs is the I/O daemon count (PVFS-n).
	IODs int
	// StripeUnit is the striping block size (PVFS default 64 KB).
	StripeUnit int64
	// MDSOpCost is the metadata server's *serialized* per-op cost — the
	// work that queues concurrent clients. ~7.8 ms reproduces Figure 10's
	// 64 sessions/s saturation (two MDS ops per session).
	MDSOpCost time.Duration
	// MDSPad is the additional per-op client-visible latency that does not
	// serialize (protocol roundtrips, client-side processing). OpCost+Pad
	// ≈ 25 ms reproduces Figure 9's ~50–60 ms two-op latencies.
	MDSPad time.Duration
	// MDSRemovePad is the lighter pad for unlink (Figure 9: ~19 ms).
	MDSRemovePad time.Duration
	// IODOpCost is each I/O daemon's per-request cost.
	IODOpCost time.Duration
	// DiskModel and DiskCapacity describe each I/O daemon's disk.
	DiskModel    disk.Model
	DiskCapacity int64
}

// DefaultConfig returns PVFS-8 with paper-calibrated costs.
func DefaultConfig() Config {
	return Config{
		IODs:         8,
		StripeUnit:   64 << 10,
		MDSOpCost:    7800 * time.Microsecond,
		MDSPad:       17 * time.Millisecond,
		MDSRemovePad: 11 * time.Millisecond,
		IODOpCost:    3 * time.Millisecond,
		DiskModel:    disk.SCSI10K(),
		DiskCapacity: 8 << 30,
	}
}

// Metadata is a file's MDS record.
type Metadata struct {
	FileID     uint64
	Size       int64
	StripeUnit int64
	IODs       int
}

// RPC messages.
type (
	mdsCreate struct{ Path string }
	mdsLookup struct{ Path string }
	mdsRemove struct{ Path string }
	mdsMkdir  struct{ Path string }
	mdsSize   struct {
		Path string
		Size int64
	}
	mdsResp struct {
		OK   bool
		Err  string
		Meta Metadata
	}
	iodRead struct {
		FileID uint64
		Off    int64 // offset within this daemon's stripe file
		N      int64
	}
	iodWrite struct {
		FileID uint64
		Off    int64
		Data   []byte
	}
	iodRemove struct{ FileID uint64 }
	iodResp   struct {
		OK   bool
		Err  string
		Data []byte
	}
)

// WireSize implements wire.Sizer.
func (m iodWrite) WireSize() int { return 96 + len(m.Data) }

// WireSize implements wire.Sizer.
func (m iodResp) WireSize() int { return 96 + len(m.Data) }

// Deployment is a running PVFS instance (MDS + IODs).
type Deployment struct {
	cfg  Config
	mds  *mds
	iods []*iod
}

// IODBytes reports each I/O daemon's stored byte count (diagnostics).
func (d *Deployment) IODBytes() []int64 {
	out := make([]int64, len(d.iods))
	for i, io := range d.iods {
		io.mu.Lock()
		var n int64
		for _, c := range io.chunks {
			n += int64(len(c))
		}
		io.mu.Unlock()
		out[i] = n
	}
	return out
}

// IODFileCount reports how many stripe files each daemon holds.
func (d *Deployment) IODFileCount() []int {
	out := make([]int, len(d.iods))
	for i, io := range d.iods {
		io.mu.Lock()
		out[i] = len(io.chunks)
		io.mu.Unlock()
	}
	return out
}

type mds struct {
	cfg   Config
	cpu   *simtime.Resource
	clock *simtime.Clock

	mu     sync.Mutex
	files  map[string]Metadata
	nextID uint64
}

type iod struct {
	cpu       *simtime.Resource
	disk      *disk.Disk
	cfgOpCost time.Duration

	mu     sync.Mutex
	chunks map[uint64][]byte // fileID → this daemon's stripe file
}

// New starts a deployment on the fabric.
func New(clock *simtime.Clock, cfg Config, network transport.Network) (*Deployment, error) {
	def := DefaultConfig()
	if cfg.IODs <= 0 {
		cfg.IODs = def.IODs
	}
	if cfg.StripeUnit <= 0 {
		cfg.StripeUnit = def.StripeUnit
	}
	if cfg.MDSOpCost <= 0 {
		cfg.MDSOpCost = def.MDSOpCost
	}
	if cfg.MDSPad <= 0 {
		cfg.MDSPad = def.MDSPad
	}
	if cfg.MDSRemovePad <= 0 {
		cfg.MDSRemovePad = def.MDSRemovePad
	}
	if cfg.IODOpCost <= 0 {
		cfg.IODOpCost = def.IODOpCost
	}
	if cfg.DiskModel.TransferRate == 0 {
		cfg.DiskModel = def.DiskModel
	}
	if cfg.DiskCapacity <= 0 {
		cfg.DiskCapacity = def.DiskCapacity
	}
	m := &mds{cfg: cfg, cpu: simtime.NewResource(clock, "pvfs-mds/cpu"), clock: clock, files: make(map[string]Metadata)}
	if _, err := network.Join(MDSNode, mdsHandler{m}); err != nil {
		return nil, err
	}
	dep := &Deployment{cfg: cfg, mds: m}
	for i := 0; i < cfg.IODs; i++ {
		io := &iod{
			cpu:       simtime.NewResource(clock, string(IODNode(i))+"/cpu"),
			disk:      disk.New(clock, string(IODNode(i)), cfg.DiskModel, cfg.DiskCapacity),
			cfgOpCost: cfg.IODOpCost,
			chunks:    make(map[uint64][]byte),
		}
		if _, err := network.Join(IODNode(i), iodHandler{io}); err != nil {
			return nil, err
		}
		dep.iods = append(dep.iods, io)
	}
	return dep, nil
}

type mdsHandler struct{ m *mds }

func (h mdsHandler) HandleCast(wire.NodeID, any) {}

func (h mdsHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	m := h.m
	m.cpu.Use(m.cfg.MDSOpCost)
	// The non-serializing share of the op latency (protocol roundtrips).
	if _, isRemove := req.(mdsRemove); isRemove {
		m.clock.Sleep(m.cfg.MDSRemovePad)
	} else {
		m.clock.Sleep(m.cfg.MDSPad)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r := req.(type) {
	case mdsCreate:
		if _, ok := m.files[r.Path]; ok {
			return mdsResp{Err: "exists"}, nil
		}
		m.nextID++
		meta := Metadata{FileID: m.nextID, StripeUnit: m.cfg.StripeUnit, IODs: m.cfg.IODs}
		m.files[r.Path] = meta
		return mdsResp{OK: true, Meta: meta}, nil
	case mdsLookup:
		meta, ok := m.files[r.Path]
		if !ok {
			return mdsResp{Err: "not found"}, nil
		}
		return mdsResp{OK: true, Meta: meta}, nil
	case mdsRemove:
		meta, ok := m.files[r.Path]
		if !ok {
			return mdsResp{Err: "not found"}, nil
		}
		delete(m.files, r.Path)
		return mdsResp{OK: true, Meta: meta}, nil
	case mdsMkdir:
		return mdsResp{OK: true}, nil
	case mdsSize:
		meta, ok := m.files[r.Path]
		if !ok {
			return mdsResp{Err: "not found"}, nil
		}
		if r.Size > meta.Size {
			meta.Size = r.Size
			m.files[r.Path] = meta
		}
		return mdsResp{OK: true, Meta: meta}, nil
	default:
		return nil, fmt.Errorf("pvfssim: unknown MDS request %T", req)
	}
}

type iodHandler struct{ io *iod }

func (h iodHandler) HandleCast(wire.NodeID, any) {}

func (h iodHandler) HandleCall(_ context.Context, _ wire.NodeID, req any) (any, error) {
	d := h.io
	d.cpu.Use(d.cfgOpCost)
	switch r := req.(type) {
	case iodRead:
		d.mu.Lock()
		data := d.chunks[r.FileID]
		var out []byte
		if r.Off < int64(len(data)) {
			end := r.Off + r.N
			if end > int64(len(data)) {
				end = int64(len(data))
			}
			out = append([]byte(nil), data[r.Off:end]...)
		}
		d.mu.Unlock()
		d.disk.Read(r.N)
		return iodResp{OK: true, Data: out}, nil
	case iodWrite:
		d.mu.Lock()
		data := d.chunks[r.FileID]
		end := r.Off + int64(len(r.Data))
		var grown int64
		if end > int64(len(data)) {
			grown = end - int64(len(data))
			nb := make([]byte, end)
			copy(nb, data)
			data = nb
		}
		copy(data[r.Off:end], r.Data)
		d.chunks[r.FileID] = data
		d.mu.Unlock()
		if grown > 0 {
			if err := d.disk.Alloc(grown); err != nil {
				return iodResp{Err: err.Error()}, nil
			}
		}
		d.disk.Write(int64(len(r.Data)))
		return iodResp{OK: true}, nil
	case iodRemove:
		d.mu.Lock()
		freed := int64(len(d.chunks[r.FileID]))
		delete(d.chunks, r.FileID)
		d.mu.Unlock()
		d.disk.Free(freed)
		return iodResp{OK: true}, nil
	default:
		return nil, fmt.Errorf("pvfssim: unknown IOD request %T", req)
	}
}

// FS is a client mount. It implements fsapi.System.
type FS struct {
	dep     *Deployment
	ep      transport.Endpoint
	timeout time.Duration
}

// NewFS attaches a client named name.
func NewFS(name string, network transport.Network, dep *Deployment) (*FS, error) {
	ep, err := network.Join(wire.NodeID(name), nullHandler{})
	if err != nil {
		return nil, err
	}
	return &FS{dep: dep, ep: ep, timeout: 60 * time.Second}, nil
}

type nullHandler struct{}

func (nullHandler) HandleCall(context.Context, wire.NodeID, any) (any, error) {
	return nil, transport.ErrNoHandler
}
func (nullHandler) HandleCast(wire.NodeID, any) {}

func (f *FS) call(to wire.NodeID, req any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	return f.ep.Call(ctx, to, req)
}

// Name implements fsapi.System.
func (f *FS) Name() string { return fmt.Sprintf("pvfs-%d", f.dep.cfg.IODs) }

// Mkdir implements fsapi.System.
func (f *FS) Mkdir(path string) error {
	_, err := f.call(MDSNode, mdsMkdir{Path: path})
	return err
}

// Create implements fsapi.System.
func (f *FS) Create(path string) (fsapi.File, error) {
	resp, err := f.call(MDSNode, mdsCreate{Path: path})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(mdsResp)
	if !ok || !r.OK {
		return nil, errors.New("pvfssim: create: " + r.Err)
	}
	return &file{fs: f, path: path, meta: r.Meta}, nil
}

// Open implements fsapi.System.
func (f *FS) Open(path string) (fsapi.File, error) { return f.open(path) }

// OpenWrite implements fsapi.System.
func (f *FS) OpenWrite(path string) (fsapi.File, error) { return f.open(path) }

func (f *FS) open(path string) (fsapi.File, error) {
	resp, err := f.call(MDSNode, mdsLookup{Path: path})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(mdsResp)
	if !ok || !r.OK {
		return nil, errors.New("pvfssim: open: " + r.Err)
	}
	return &file{fs: f, path: path, meta: r.Meta}, nil
}

// Remove implements fsapi.System. Every I/O daemon drops its stripe file.
func (f *FS) Remove(path string) error {
	resp, err := f.call(MDSNode, mdsRemove{Path: path})
	if err != nil {
		return err
	}
	r, ok := resp.(mdsResp)
	if !ok || !r.OK {
		return errors.New("pvfssim: remove: " + r.Err)
	}
	var wg sync.WaitGroup
	for i := 0; i < r.Meta.IODs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.call(IODNode(i), iodRemove{FileID: r.Meta.FileID})
		}(i)
	}
	wg.Wait()
	return nil
}

type file struct {
	fs   *FS
	path string
	mu   sync.Mutex
	meta Metadata
}

// piece maps a logical range onto one daemon's stripe file.
type piece struct {
	iod  int
	off  int64
	n    int64
	want int64 // cursor within the logical request
}

func (h *file) pieces(off, n int64) []piece {
	var out []piece
	unit := h.meta.StripeUnit
	count := int64(h.meta.IODs)
	rowBytes := unit * count
	cursor := int64(0)
	for n > 0 {
		row := off / rowBytes
		within := off % rowBytes
		iodIdx := within / unit
		iodOff := row*unit + within%unit
		run := unit - within%unit
		if run > n {
			run = n
		}
		out = append(out, piece{iod: int(iodIdx), off: iodOff, n: run, want: cursor})
		off += run
		n -= run
		cursor += run
	}
	return out
}

// ReadAt stripes the read across the I/O daemons in parallel — the
// aggregated-bandwidth path that makes PVFS scale in Figure 11.
func (h *file) ReadAt(p []byte, off int64) (int, error) {
	h.mu.Lock()
	size := h.meta.Size
	h.mu.Unlock()
	if off >= size {
		return 0, io.EOF
	}
	n := int64(len(p))
	short := false
	if off+n > size {
		n = size - off
		short = true
	}
	ps := h.pieces(off, n)
	errs := make(chan error, len(ps))
	for _, pc := range ps {
		go func(pc piece) {
			resp, err := h.fs.call(IODNode(pc.iod), iodRead{FileID: h.meta.FileID, Off: pc.off, N: pc.n})
			if err != nil {
				errs <- err
				return
			}
			r, ok := resp.(iodResp)
			if !ok || !r.OK {
				errs <- errors.New("pvfssim: read: " + r.Err)
				return
			}
			copy(p[pc.want:pc.want+pc.n], r.Data)
			errs <- nil
		}(pc)
	}
	for range ps {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// WriteAt stripes the write across the I/O daemons in parallel.
func (h *file) WriteAt(p []byte, off int64) (int, error) {
	ps := h.pieces(off, int64(len(p)))
	errs := make(chan error, len(ps))
	for _, pc := range ps {
		go func(pc piece) {
			resp, err := h.fs.call(IODNode(pc.iod), iodWrite{FileID: h.meta.FileID, Off: pc.off, Data: p[pc.want : pc.want+pc.n]})
			if err != nil {
				errs <- err
				return
			}
			r, ok := resp.(iodResp)
			if !ok || !r.OK {
				errs <- errors.New("pvfssim: write: " + r.Err)
				return
			}
			errs <- nil
		}(pc)
	}
	for range ps {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	h.mu.Lock()
	if end := off + int64(len(p)); end > h.meta.Size {
		h.meta.Size = end
	}
	h.mu.Unlock()
	return len(p), nil
}

// Close records the final size at the MDS.
func (h *file) Close() error {
	h.mu.Lock()
	size := h.meta.Size
	h.mu.Unlock()
	resp, err := h.fs.call(MDSNode, mdsSize{Path: h.path, Size: size})
	if err != nil {
		return err
	}
	if r, ok := resp.(mdsResp); !ok || !r.OK {
		return errors.New("pvfssim: close: " + r.Err)
	}
	return nil
}

func (h *file) Size() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.meta.Size
}

var _ fsapi.System = (*FS)(nil)

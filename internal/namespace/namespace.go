// Package namespace implements Sorrento's namespace server (paper §3.1):
// the hierarchical directory tree of a volume mapping pathnames to file
// entries (FileID, latest version, timestamps, attributes). The server
// deliberately tracks no physical segment locations — FileIDs are location
// independent — which keeps its services cheap (the paper measures a single
// server at ~1300 ops/s) and off the data path.
//
// The server also arbitrates version commits (§3.5): it grants short
// exclusive commit windows, detects update conflicts by base-version
// comparison, and offers write-lock leases for cooperating processes.
// Durability comes from a write-ahead log with periodic checkpoints.
package namespace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// Config tunes the server.
type Config struct {
	// OpCost is the modeled CPU time per namespace operation. The paper's
	// measured 1300 ops/s corresponds to ~770 µs.
	OpCost time.Duration
	// CommitWindow is how long a granted commit window stays exclusive
	// before it is considered abandoned.
	CommitWindow time.Duration
	// CheckpointEvery checkpoints the WAL after this many appended ops.
	CheckpointEvery int
}

// DefaultConfig matches the paper's measurements.
func DefaultConfig() Config {
	return Config{
		OpCost:          770 * time.Microsecond,
		CommitWindow:    30 * time.Second,
		CheckpointEvery: 10000,
	}
}

type dirNode struct {
	children map[string]*dirNode
	entry    *wire.FileEntry // nil for directories
}

func newDir() *dirNode { return &dirNode{children: make(map[string]*dirNode)} }

func (n *dirNode) isDir() bool { return n.entry == nil }

type lease struct {
	owner  string
	expiry time.Duration
}

type commitWindow struct {
	ticket uint64
	expiry time.Duration
}

// Server is one volume's namespace server.
type Server struct {
	clock *simtime.Clock
	cfg   Config
	cpu   *simtime.Resource
	wal   WAL

	// Metric handles (nil when uninstrumented; no-ops on nil).
	rec       *obs.RPCRecorder
	conflicts *obs.Counter
	blocked   *obs.Counter

	mu         sync.Mutex
	root       *dirNode
	leases     map[string]lease
	commits    map[ids.FileID]*commitWindow
	nextTicket uint64
	opsSinceCk int
}

// NewServer builds a server, recovering state from the WAL.
func NewServer(clock *simtime.Clock, cfg Config, wal WAL) (*Server, error) {
	if cfg.OpCost <= 0 {
		cfg.OpCost = DefaultConfig().OpCost
	}
	if cfg.CommitWindow <= 0 {
		cfg.CommitWindow = DefaultConfig().CommitWindow
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultConfig().CheckpointEvery
	}
	if wal == nil {
		wal = &MemWAL{}
	}
	s := &Server{
		clock:   clock,
		cfg:     cfg,
		cpu:     simtime.NewResource(clock, "namespace/cpu"),
		wal:     wal,
		root:    newDir(),
		leases:  make(map[string]lease),
		commits: make(map[ids.FileID]*commitWindow),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// CPU exposes the server's CPU resource for load accounting.
func (s *Server) CPU() *simtime.Resource { return s.cpu }

// Instrument exports the server's observability surface: per-op latency and
// message sizes as sorrento_rpc_server_* series under the logical node "ns",
// the commit arbitration outcomes (update conflicts vs. commit-window
// blocking, §3.5), and the server's CPU resource. Call before serving.
func (s *Server) Instrument(o *obs.Obs) {
	reg := o.Reg()
	if reg == nil {
		return
	}
	s.rec = obs.NewRPCRecorder(reg, "server", "ns")
	s.conflicts = reg.Counter("sorrento_namespace_commit_conflicts_total", obs.L("kind", "conflict"))
	s.blocked = reg.Counter("sorrento_namespace_commit_conflicts_total", obs.L("kind", "blocked"))
	obs.RegisterResource(reg, s.clock, s.cpu)
}

func (s *Server) recover() error {
	snapshot, ops, err := s.wal.Recover()
	if err != nil {
		return err
	}
	if len(snapshot) > 0 {
		var state snapshotState
		if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&state); err != nil {
			return fmt.Errorf("namespace: decode checkpoint: %w", err)
		}
		for _, d := range state.Dirs {
			s.applyOp(Op{Kind: OpMkdir, Path: d})
		}
		for _, f := range state.Files {
			s.applyOp(Op{Kind: OpCreate, Path: f.Path, Entry: f})
		}
	}
	for _, op := range ops {
		s.applyOp(op)
	}
	return nil
}

// applyOp mutates the tree without logging (replay path). Errors during
// replay indicate ops that failed identically at runtime; they are ignored.
func (s *Server) applyOp(op Op) {
	switch op.Kind {
	case OpMkdir:
		s.mkdirLocked(op.Path)
	case OpRmdir:
		s.rmdirLocked(op.Path)
	case OpCreate:
		e := op.Entry
		s.createLocked(op.Path, &e)
	case OpRemove:
		s.removeLocked(op.Path)
	case OpCommit:
		if n, _ := s.lookupNode(op.Path); n != nil && n.entry != nil {
			n.entry.Version = op.NewVer
			n.entry.Size = op.Size
		}
	}
}

// logOp appends to the WAL and checkpoints when due.
func (s *Server) logOp(op Op) {
	if err := s.wal.Append(op); err != nil {
		// Losing the log is fatal for durability but not for the running
		// volume; keep serving and surface the failure loudly.
		panic(fmt.Sprintf("namespace: WAL append failed: %v", err))
	}
	s.opsSinceCk++
	if s.opsSinceCk >= s.cfg.CheckpointEvery {
		s.checkpointLocked()
	}
}

func (s *Server) checkpointLocked() {
	state := snapshotState{}
	var walk func(prefix string, n *dirNode)
	walk = func(prefix string, n *dirNode) {
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			p := prefix + "/" + name
			if c.isDir() {
				state.Dirs = append(state.Dirs, p)
				walk(p, c)
			} else {
				state.Files = append(state.Files, *c.entry)
			}
		}
	}
	walk("", s.root)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		panic(fmt.Sprintf("namespace: encode checkpoint: %v", err))
	}
	if err := s.wal.Checkpoint(buf.Bytes()); err != nil {
		panic(fmt.Sprintf("namespace: checkpoint failed: %v", err))
	}
	s.opsSinceCk = 0
}

// splitPath cleans and splits an absolute path; "" and "/" yield nil.
func splitPath(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// lookupNode resolves a path to its node and parent.
func (s *Server) lookupNode(path string) (node, parent *dirNode) {
	parts := splitPath(path)
	cur := s.root
	var par *dirNode
	for _, part := range parts {
		if cur == nil || !cur.isDir() {
			return nil2()
		}
		par = cur
		cur = cur.children[part]
		if cur == nil {
			return nil, par
		}
	}
	return cur, par
}

func nil2() (*dirNode, *dirNode) { return nil, nil }

func (s *Server) mkdirLocked(path string) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("mkdir: bad path %q", path)
	}
	cur := s.root
	for _, part := range parts[:len(parts)-1] {
		next := cur.children[part]
		if next == nil || !next.isDir() {
			return fmt.Errorf("mkdir: missing parent in %q", path)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	if _, exists := cur.children[name]; exists {
		return fmt.Errorf("mkdir: %q exists", path)
	}
	cur.children[name] = newDir()
	return nil
}

func (s *Server) rmdirLocked(path string) error {
	n, par := s.lookupNode(path)
	if n == nil || !n.isDir() || par == nil {
		return fmt.Errorf("rmdir: %q not a directory", path)
	}
	if len(n.children) != 0 {
		return fmt.Errorf("rmdir: %q not empty", path)
	}
	parts := splitPath(path)
	delete(par.children, parts[len(parts)-1])
	return nil
}

func (s *Server) createLocked(path string, e *wire.FileEntry) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("create: bad path %q", path)
	}
	cur := s.root
	for _, part := range parts[:len(parts)-1] {
		next := cur.children[part]
		if next == nil || !next.isDir() {
			return fmt.Errorf("create: missing parent in %q", path)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	if _, exists := cur.children[name]; exists {
		return fmt.Errorf("create: %q exists", path)
	}
	cur.children[name] = &dirNode{entry: e}
	return nil
}

func (s *Server) removeLocked(path string) (wire.FileEntry, error) {
	n, par := s.lookupNode(path)
	if n == nil || n.isDir() || par == nil {
		return wire.FileEntry{}, fmt.Errorf("remove: %q not a file", path)
	}
	parts := splitPath(path)
	delete(par.children, parts[len(parts)-1])
	return *n.entry, nil
}

// charge models the per-op CPU cost; it must be called outside s.mu.
func (s *Server) charge() { s.cpu.Use(s.cfg.OpCost) }

// Mkdir creates a directory.
func (s *Server) Mkdir(path string) wire.NSGenericResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mkdirLocked(path); err != nil {
		return wire.NSGenericResp{Err: err.Error()}
	}
	s.logOp(Op{Kind: OpMkdir, Path: path})
	return wire.NSGenericResp{OK: true}
}

// Rmdir removes an empty directory.
func (s *Server) Rmdir(path string) wire.NSGenericResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rmdirLocked(path); err != nil {
		return wire.NSGenericResp{Err: err.Error()}
	}
	s.logOp(Op{Kind: OpRmdir, Path: path})
	return wire.NSGenericResp{OK: true}
}

// Create registers a new file entry.
func (s *Server) Create(path string, fileID ids.FileID, attrs wire.FileAttrs) wire.NSCreateResp {
	s.charge()
	now := time.Now()
	entry := wire.FileEntry{
		Path:     path,
		FileID:   fileID,
		Version:  0,
		Attrs:    attrs,
		Created:  now,
		Modified: now,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := entry
	if err := s.createLocked(path, &e); err != nil {
		return wire.NSCreateResp{Err: err.Error()}
	}
	s.logOp(Op{Kind: OpCreate, Path: path, Entry: entry})
	return wire.NSCreateResp{OK: true, Entry: entry}
}

// Lookup resolves a path.
func (s *Server) Lookup(path string) wire.NSLookupResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.lookupNode(path)
	if n == nil || n.isDir() {
		return wire.NSLookupResp{}
	}
	return wire.NSLookupResp{OK: true, Entry: *n.entry}
}

// Remove unlinks a file, returning its final entry so the client can
// eagerly delete replicas.
func (s *Server) Remove(path string) wire.NSRemoveResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.removeLocked(path)
	if err != nil {
		// removeLocked fails for one reason only: path names no file.
		return wire.NSRemoveResp{Err: err.Error(), NotFound: true}
	}
	s.logOp(Op{Kind: OpRemove, Path: path})
	delete(s.commits, entry.FileID)
	delete(s.leases, path)
	return wire.NSRemoveResp{OK: true, Entry: entry}
}

// ReadDir lists a directory.
func (s *Server) ReadDir(path string) wire.NSReadDirResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.lookupNode(path)
	if n == nil || !n.isDir() {
		return wire.NSReadDirResp{Err: fmt.Sprintf("readdir: %q not a directory", path)}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]wire.DirEntry, 0, len(names))
	for _, name := range names {
		c := n.children[name]
		de := wire.DirEntry{Name: name, IsDir: c.isDir()}
		if !c.isDir() {
			e := *c.entry
			de.Entry = &e
		}
		out = append(out, de)
	}
	return wire.NSReadDirResp{OK: true, Entries: out}
}

// CommitBegin grants an exclusive commit window when the base version
// matches the latest (paper §3.5): a lower base means another process
// committed first — an update conflict.
func (s *Server) CommitBegin(req wire.NSCommitBegin) wire.NSCommitBeginResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.lookupNode(req.Path)
	if n == nil || n.isDir() {
		return wire.NSCommitBeginResp{}
	}
	e := n.entry
	if e.Version > req.BaseVer {
		s.conflicts.Inc()
		return wire.NSCommitBeginResp{Conflict: true, LatestVer: e.Version}
	}
	now := s.clock.Now()
	if w, ok := s.commits[e.FileID]; ok && now < w.expiry {
		s.blocked.Inc()
		return wire.NSCommitBeginResp{Blocked: true, LatestVer: e.Version}
	}
	s.nextTicket++
	s.commits[e.FileID] = &commitWindow{ticket: s.nextTicket, expiry: now + s.cfg.CommitWindow}
	return wire.NSCommitBeginResp{OK: true, LatestVer: e.Version, Ticket: s.nextTicket}
}

// CommitComplete finalizes a commit under a valid ticket, advancing the
// file's latest version.
func (s *Server) CommitComplete(req wire.NSCommitComplete) wire.NSGenericResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.lookupNode(req.Path)
	if n == nil || n.isDir() {
		return wire.NSGenericResp{Err: "commit: no such file"}
	}
	w, ok := s.commits[n.entry.FileID]
	if !ok || w.ticket != req.Ticket {
		return wire.NSGenericResp{Err: "commit: invalid ticket"}
	}
	delete(s.commits, n.entry.FileID)
	n.entry.Version = req.NewVer
	n.entry.Size = req.NewSize
	n.entry.Modified = time.Now()
	s.logOp(Op{Kind: OpCommit, Path: req.Path, NewVer: req.NewVer, Size: req.NewSize})
	return wire.NSGenericResp{OK: true}
}

// CommitAbort releases a commit window.
func (s *Server) CommitAbort(req wire.NSCommitAbort) wire.NSGenericResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _ := s.lookupNode(req.Path)
	if n == nil || n.isDir() {
		return wire.NSGenericResp{Err: "abort: no such file"}
	}
	if w, ok := s.commits[n.entry.FileID]; ok && w.ticket == req.Ticket {
		delete(s.commits, n.entry.FileID)
	}
	return wire.NSGenericResp{OK: true}
}

// LeaseAcquire grants a write-lock lease when free, held by the same owner,
// or expired.
func (s *Server) LeaseAcquire(req wire.NSLeaseAcquire) wire.NSLeaseAcquireResp {
	s.charge()
	ttl := time.Duration(req.TTLSec * float64(time.Second))
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	if l, ok := s.leases[req.Path]; ok && l.owner != req.Owner && now < l.expiry {
		return wire.NSLeaseAcquireResp{Holder: l.owner}
	}
	s.leases[req.Path] = lease{owner: req.Owner, expiry: now + ttl}
	return wire.NSLeaseAcquireResp{OK: true}
}

// LeaseRelease releases a lease held by owner.
func (s *Server) LeaseRelease(req wire.NSLeaseRelease) wire.NSGenericResp {
	s.charge()
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.leases[req.Path]; ok && l.owner == req.Owner {
		delete(s.leases, req.Path)
	}
	return wire.NSGenericResp{OK: true}
}

// Handle dispatches a wire message to the corresponding method — the
// adapter both the simulated fabric and the TCP daemon use. When the server
// is instrumented, each op's latency and estimated message sizes are
// recorded under the logical node "ns".
func (s *Server) Handle(req any) (any, error) {
	if s.rec == nil {
		return s.handle(req)
	}
	start := s.clock.Now()
	resp, err := s.handle(req)
	s.rec.Observe(req, wire.SizeOf(resp), wire.SizeOf(req), s.clock.Now()-start, err)
	return resp, err
}

func (s *Server) handle(req any) (any, error) {
	switch m := req.(type) {
	case wire.NSLookup:
		return s.Lookup(m.Path), nil
	case wire.NSCreate:
		return s.Create(m.Path, m.FileID, m.Attrs), nil
	case wire.NSRemove:
		return s.Remove(m.Path), nil
	case wire.NSMkdir:
		return s.Mkdir(m.Path), nil
	case wire.NSRmdir:
		return s.Rmdir(m.Path), nil
	case wire.NSReadDir:
		return s.ReadDir(m.Path), nil
	case wire.NSCommitBegin:
		return s.CommitBegin(m), nil
	case wire.NSCommitComplete:
		return s.CommitComplete(m), nil
	case wire.NSCommitAbort:
		return s.CommitAbort(m), nil
	case wire.NSLeaseAcquire:
		return s.LeaseAcquire(m), nil
	case wire.NSLeaseRelease:
		return s.LeaseRelease(m), nil
	default:
		return nil, fmt.Errorf("namespace: unknown request %T", req)
	}
}

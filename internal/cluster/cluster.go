// Package cluster models an HPC machine — compute nodes, their CPUs and
// memory, the interconnect, and an attached parallel file system — and
// simulates the wall-clock behaviour of parallel I/O phases on it. It stands
// in for the paper's FUCHS-CSC cluster (198 nodes, 2× Intel Xeon E5-2670 v2,
// 20 cores and 128 GB per node, BeeGFS over InfiniBand FDR, ~27 GB/s
// aggregate bandwidth): the knowledge cycle only ever observes benchmark
// *outputs*, so a calibrated analytic model with contention, caching and
// seeded noise reproduces the statistical shape of those outputs.
//
// Fault injection hooks (per-node slowdowns, write-path congestion,
// read-path degradation) let experiments recreate the anomalies discussed in
// the paper's Figures 5 and 6.
package cluster

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/rng"
)

// NodeState describes the health of a compute node.
type NodeState int

// Node health states.
const (
	Healthy NodeState = iota
	Degraded
	Down
)

// String returns the lower-case state name.
func (s NodeState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// Node is one compute node.
type Node struct {
	ID    int
	State NodeState
	// WriteFactor and ReadFactor scale the node's effective client-side
	// I/O bandwidth; 1 means nominal. A "broken node" in the sense of the
	// paper's Fig. 6 discussion has a factor well below 1.
	WriteFactor float64
	ReadFactor  float64
}

// Machine is the modelled cluster.
type Machine struct {
	Name         string
	Nodes        []Node
	CoresPerNode int
	MemGBPerNode int
	CPUModel     string
	CPUFreqMHz   float64
	CacheKB      int
	Interconnect string

	// ClientWriteMiBps / ClientReadMiBps are the per-node sustainable
	// client I/O rates to the PFS (limited by the client stack, not the
	// NIC: IB FDR carries ~6800 MiB/s but the BeeGFS client sustains far
	// less per node).
	ClientWriteMiBps float64
	ClientReadMiBps  float64

	// WriteOpOverheadSec / ReadOpOverheadSec is the fixed per-transfer
	// software cost; it is what makes small transfer sizes slow.
	WriteOpOverheadSec float64
	ReadOpOverheadSec  float64

	// OpenSecPerFile / CloseSecPerFile model metadata cost of opening and
	// closing one file from one client.
	OpenSecPerFile  float64
	CloseSecPerFile float64

	// FsyncSec is the flush time added per task at file close when the
	// benchmark requests fsync (IOR -e).
	FsyncSec float64

	// PageCacheReadBoost multiplies read bandwidth when a read is served
	// from the client page cache (same task re-reading its own freshly
	// written data, i.e. no task reordering and data fits in memory).
	PageCacheReadBoost float64

	// WriteNoise / ReadNoise are relative standard deviations of the
	// multiplicative run-to-run noise. Writes on shared PFS are far
	// noisier than reads, which is exactly the spread the paper's Fig. 6
	// shows.
	WriteNoise float64
	ReadNoise  float64

	// WriteCongestion globally scales write bandwidth (1 = none). It
	// models transient storage-side interference such as a RAID rebuild
	// or a competing job flushing a burst.
	WriteCongestion float64

	FS *pfs.FileSystem
}

// FuchsCSC builds the FUCHS-CSC-calibrated machine with an attached BeeGFS
// file system, all nodes healthy.
func FuchsCSC() *Machine {
	m := &Machine{
		Name:               "FUCHS-CSC",
		CoresPerNode:       20,
		MemGBPerNode:       128,
		CPUModel:           "Intel(R) Xeon(R) CPU E5-2670 v2 @ 2.50GHz",
		CPUFreqMHz:         2500,
		CacheKB:            25600,
		Interconnect:       "InfiniBand FDR",
		ClientWriteMiBps:   750,
		ClientReadMiBps:    980,
		WriteOpOverheadSec: 0.0010,
		ReadOpOverheadSec:  0.0004,
		OpenSecPerFile:     0.004,
		CloseSecPerFile:    0.002,
		FsyncSec:           0.05,
		PageCacheReadBoost: 4.0,
		WriteNoise:         0.055,
		ReadNoise:          0.012,
		WriteCongestion:    1,
		FS:                 pfs.NewBeeGFS(pfs.DefaultConfig()),
	}
	const nodes = 198
	m.Nodes = make([]Node, 0, nodes) // one machine per generated unit: not 2.5x its size in regrown arrays
	for i := 0; i < nodes; i++ {
		m.Nodes = append(m.Nodes, Node{ID: i + 1, State: Healthy, WriteFactor: 1, ReadFactor: 1})
	}
	return m
}

// SmallTest builds a 4-node machine with the same per-node calibration,
// convenient for fast tests.
func SmallTest() *Machine {
	m := FuchsCSC()
	m.Name = "smalltest"
	m.Nodes = m.Nodes[:4]
	return m
}

// SetNodeFactor injects an I/O slowdown on node id: writeFactor and
// readFactor scale the node's effective bandwidth (1 = healthy). The node
// state becomes Degraded when either factor < 1, Healthy when both are 1.
func (m *Machine) SetNodeFactor(id int, writeFactor, readFactor float64) {
	for i := range m.Nodes {
		if m.Nodes[i].ID == id {
			m.Nodes[i].WriteFactor = writeFactor
			m.Nodes[i].ReadFactor = readFactor
			if writeFactor < 1 || readFactor < 1 {
				m.Nodes[i].State = Degraded
			} else {
				m.Nodes[i].State = Healthy
			}
		}
	}
}

// ClearFaults restores every node and the file system to nominal health and
// removes global write congestion.
func (m *Machine) ClearFaults() {
	for i := range m.Nodes {
		m.Nodes[i].State = Healthy
		m.Nodes[i].WriteFactor = 1
		m.Nodes[i].ReadFactor = 1
	}
	m.WriteCongestion = 1
	if m.FS != nil {
		m.FS.ClearFaults()
	}
}

// TotalCores returns the machine's total core count.
func (m *Machine) TotalCores() int { return len(m.Nodes) * m.CoresPerNode }

// Op is the direction of an I/O phase.
type Op int

// I/O directions.
const (
	Write Op = iota
	Read
)

// String returns "write" or "read".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// API names a benchmark I/O interface.
type API string

// Supported I/O APIs.
const (
	POSIX API = "POSIX"
	MPIIO API = "MPIIO"
	HDF5  API = "HDF5"
)

// IORequest describes one I/O phase (for one iteration of a benchmark).
type IORequest struct {
	Op           Op
	API          API
	Tasks        int   // total MPI ranks
	TasksPerNode int   // ranks per node; 0 means pack CoresPerNode
	TransferSize int64 // bytes per I/O call (IOR -t)
	BlockSize    int64 // contiguous bytes per task per segment (IOR -b)
	Segments     int   // IOR -s
	FilePerProc  bool  // IOR -F
	Collective   bool  // IOR -c
	Fsync        bool  // IOR -e
	// ReorderTasks (IOR -C) shifts which rank reads the data written by
	// which, defeating the client page cache on read-back.
	ReorderTasks bool
	// RandomOffsets (IOR -z) randomizes the access order within the file,
	// defeating readahead and write coalescing.
	RandomOffsets bool
	// DirectIO (IOR -B / O_DIRECT) bypasses the page cache entirely.
	DirectIO bool
	// StripeCount requests a file stripe width; 0 uses the FS default.
	StripeCount int
	// CacheHot marks the read as potentially served from page cache when
	// reordering is off and the per-node data fits in memory.
	CacheHot bool
}

// Validate reports whether the request is executable on m.
func (r IORequest) Validate(m *Machine) error {
	if r.Tasks <= 0 {
		return fmt.Errorf("cluster: tasks must be positive, got %d", r.Tasks)
	}
	if r.TransferSize <= 0 {
		return fmt.Errorf("cluster: transfer size must be positive, got %d", r.TransferSize)
	}
	if r.BlockSize <= 0 {
		return fmt.Errorf("cluster: block size must be positive, got %d", r.BlockSize)
	}
	if r.BlockSize%r.TransferSize != 0 {
		return fmt.Errorf("cluster: block size %d not a multiple of transfer size %d", r.BlockSize, r.TransferSize)
	}
	if r.Segments <= 0 {
		return fmt.Errorf("cluster: segments must be positive, got %d", r.Segments)
	}
	tpn := r.TasksPerNode
	if tpn <= 0 {
		tpn = m.CoresPerNode
	}
	need := (r.Tasks + tpn - 1) / tpn
	if need > len(m.Nodes) {
		return fmt.Errorf("cluster: need %d nodes for %d tasks (%d per node), machine has %d", need, r.Tasks, tpn, len(m.Nodes))
	}
	return nil
}

// NodesNeeded returns how many nodes the request occupies.
func (r IORequest) NodesNeeded(m *Machine) int {
	tpn := r.TasksPerNode
	if tpn <= 0 {
		tpn = m.CoresPerNode
	}
	return (r.Tasks + tpn - 1) / tpn
}

// TotalBytes returns the bytes moved by the phase.
func (r IORequest) TotalBytes() int64 {
	return int64(r.Tasks) * r.BlockSize * int64(r.Segments)
}

// IOResult is the outcome of a simulated I/O phase, with the timing
// decomposition IOR reports (open/wrRd/close/total) and derived rates.
type IOResult struct {
	BandwidthMiBps float64
	OpsPerSec      float64
	TotalOps       int64
	OpenSec        float64
	WrRdSec        float64
	CloseSec       float64
	TotalSec       float64
	LatencySec     float64 // mean per-transfer latency
	BytesMoved     int64
}

// apiFactor is the efficiency multiplier of each I/O interface relative to
// raw POSIX for large independent transfers.
func apiFactor(api API, collective bool) float64 {
	switch api {
	case MPIIO:
		if collective {
			// Two-phase collective buffering costs bandwidth for large
			// contiguous transfers (it pays off only for small/strided
			// patterns, which the aggregation bonus below models).
			return 0.90
		}
		return 0.97
	case HDF5:
		return 0.92
	default:
		return 1.0
	}
}

// Simulate executes one I/O phase and returns its timing. The src generator
// supplies all stochastic noise; passing generators forked from the same
// experiment seed makes whole experiments reproducible.
func (m *Machine) Simulate(r IORequest, src *rng.Source) (IOResult, error) {
	if err := r.Validate(m); err != nil {
		return IOResult{}, err
	}
	if src == nil {
		src = rng.New(1)
	}
	tpn := r.TasksPerNode
	if tpn <= 0 {
		tpn = m.CoresPerNode
	}
	nodes := r.NodesNeeded(m)

	// Client-side limit: the slowest participating node gates phase
	// completion (all ranks move the same volume), so the aggregate is
	// nNodes × the slowest node's effective rate.
	perNode := m.ClientWriteMiBps
	worst := 1.0
	for _, n := range m.Nodes[:nodes] {
		f := n.WriteFactor
		if r.Op == Read {
			f = n.ReadFactor
		}
		if n.State == Down {
			f = 0
		}
		if f < worst {
			worst = f
		}
	}
	if r.Op == Read {
		perNode = m.ClientReadMiBps
	}
	if worst <= 0 {
		return IOResult{}, fmt.Errorf("cluster: a participating node is down")
	}
	clientLimit := float64(nodes) * perNode * worst

	// PFS-side limit: bandwidth of the stripe targets actually used. With
	// file-per-process, many files spread over all targets; with a single
	// shared file only the stripe width participates.
	stripe := m.FS.StripeCountFor(r.StripeCount)
	targetsUsed := stripe
	if r.FilePerProc {
		targetsUsed = len(m.FS.Targets)
		if r.Tasks*stripe < targetsUsed {
			targetsUsed = r.Tasks * stripe
		}
	}
	var pfsLimit float64
	if r.Op == Write {
		pfsLimit = m.FS.AggregateWriteMiBps(targetsUsed)
	} else {
		pfsLimit = m.FS.AggregateReadMiBps(targetsUsed)
	}
	if pfsLimit <= 0 {
		return IOResult{}, fmt.Errorf("cluster: file system has no bandwidth for %v", r.Op)
	}

	// Shared-file single-stripe contention: many clients hammering few
	// targets lose some efficiency to lock/serialization overhead.
	sharedPenalty := 1.0
	if !r.FilePerProc && r.Tasks > stripe*4 {
		sharedPenalty = 0.88
	}
	// Chunk-misaligned interleaved access to a shared file (the IO500
	// ior-hard pattern: 47008-byte transfers) triggers read-modify-write
	// and lock thrash across clients.
	if !r.FilePerProc && r.TransferSize%m.FS.ChunkSize != 0 && r.Tasks > 1 {
		if r.Op == Write {
			sharedPenalty *= 0.25
		} else {
			sharedPenalty *= 0.55
		}
	}

	// Page-cache read boost (IOR's classic pitfall that -C exists to
	// defeat): same-rank re-reads of freshly written data that fit in node
	// memory are served from memory. O_DIRECT bypasses the cache.
	cacheBoost := 1.0
	if r.Op == Read && r.CacheHot && !r.ReorderTasks && !r.DirectIO {
		perNodeBytes := float64(r.BlockSize) * float64(r.Segments) * float64(tpn)
		if perNodeBytes < float64(m.MemGBPerNode)*1024*1024*1024*0.5 {
			cacheBoost = m.PageCacheReadBoost
		}
	}

	raw := clientLimit * cacheBoost
	if pfsLimit < raw && cacheBoost == 1 {
		raw = pfsLimit
	}
	raw *= sharedPenalty
	// Random offsets defeat server-side readahead and client write
	// coalescing; reads hurt more than writes.
	if r.RandomOffsets {
		if r.Op == Read {
			raw *= 0.55
		} else {
			raw *= 0.75
		}
	}
	// O_DIRECT skips the kernel buffering pipeline: writes lose the
	// deep write-behind queue, reads lose readahead overlap.
	if r.DirectIO {
		raw *= 0.85
	}
	if r.Op == Write {
		// Global write-path interference (RAID rebuild, competing burst)
		// throttles the whole write path regardless of which limit binds.
		raw *= m.WriteCongestion
	}

	// Per-transfer overhead makes small transfers inefficient. Overhead is
	// paid per transfer per rank, but ranks on a node share cores, so the
	// effective per-byte cost uses the per-rank stream rate.
	opOverhead := m.WriteOpOverheadSec
	if r.Op == Read {
		opOverhead = m.ReadOpOverheadSec
	}
	if r.Collective && r.TransferSize < m.FS.ChunkSize {
		// Collective buffering aggregates small transfers into chunk-sized
		// ones; model as reduced per-op overhead.
		opOverhead *= 0.25
	}
	perRankRate := raw / float64(r.Tasks) // MiB/s per rank before overhead
	tMiB := float64(r.TransferSize) / (1 << 20)
	idealOpSec := tMiB / perRankRate
	eff := idealOpSec / (idealOpSec + opOverhead)
	bw := raw * eff * apiFactor(r.API, r.Collective)

	// Multiplicative run-to-run noise.
	noise := m.WriteNoise
	if r.Op == Read {
		noise = m.ReadNoise
	}
	bw = src.Perturb(bw, noise)

	// Timing decomposition.
	total := r.TotalBytes()
	wrRd := float64(total) / (1 << 20) / bw
	filesOpened := 1
	if r.FilePerProc {
		filesOpened = r.Tasks
	}
	// Creates/opens are issued in parallel but serialize at the metadata
	// service beyond its rate.
	metaOp := "stat"
	if r.Op == Write {
		metaOp = "create"
	}
	metaRate := m.FS.MetaRate(metaOp)
	openSec := m.OpenSecPerFile + float64(filesOpened)/metaRate
	closeSec := m.CloseSecPerFile + float64(filesOpened)/(2*metaRate)
	if r.Fsync && r.Op == Write {
		closeSec += m.FsyncSec * src.Perturb(1, 0.2)
	}
	openSec = src.Perturb(openSec, 0.15)
	closeSec = src.Perturb(closeSec, 0.15)

	opsPerBlock := r.BlockSize / r.TransferSize
	totalOps := int64(r.Tasks) * int64(r.Segments) * opsPerBlock
	totalSec := openSec + wrRd + closeSec
	res := IOResult{
		BandwidthMiBps: float64(total) / (1 << 20) / totalSec,
		OpsPerSec:      float64(totalOps) / totalSec,
		TotalOps:       totalOps,
		OpenSec:        openSec,
		WrRdSec:        wrRd,
		CloseSec:       closeSec,
		TotalSec:       totalSec,
		LatencySec:     wrRd / float64(totalOps/int64(r.Tasks)),
		BytesMoved:     total,
	}
	return res, nil
}

// MetaKind is a metadata benchmark operation type.
type MetaKind string

// Metadata operation kinds, matching mdtest phase names.
const (
	MetaCreate MetaKind = "create"
	MetaStat   MetaKind = "stat"
	MetaRead   MetaKind = "read"
	MetaRemove MetaKind = "removal"
)

// MetaRequest describes one metadata phase.
type MetaRequest struct {
	Kind         MetaKind
	Tasks        int
	ItemsPerTask int
	// SharedDir places all items in one directory (mdtest-hard), which
	// contends on that directory's metadata; unique per-task directories
	// (mdtest-easy) scale freely.
	SharedDir bool
	// WriteBytes is written into each created file (mdtest-hard uses
	// 3901 bytes); it slows create/read phases.
	WriteBytes int64
}

// MetaResult is the outcome of a simulated metadata phase.
type MetaResult struct {
	OpsPerSec float64
	TotalOps  int64
	TotalSec  float64
}

// SimulateMeta executes one metadata phase.
func (m *Machine) SimulateMeta(r MetaRequest, src *rng.Source) (MetaResult, error) {
	if r.Tasks <= 0 || r.ItemsPerTask <= 0 {
		return MetaResult{}, fmt.Errorf("cluster: meta request needs positive tasks and items, got %d×%d", r.Tasks, r.ItemsPerTask)
	}
	if src == nil {
		src = rng.New(1)
	}
	op := "stat"
	switch r.Kind {
	case MetaCreate:
		op = "create"
	case MetaRemove:
		op = "delete"
	}
	rate := m.FS.MetaRate(op)
	if r.SharedDir {
		// A single shared directory serializes on its owning metadata
		// server and its directory lock.
		rate = rate / float64(len(m.FS.MetaServers)) * 0.55
	}
	// Small-file data transfer cost folded into the op rate.
	if r.WriteBytes > 0 && (r.Kind == MetaCreate || r.Kind == MetaRead) {
		perOpDataSec := float64(r.WriteBytes) / (120 * 1024 * 1024) // ~120 MB/s small-IO path
		rate = 1 / (1/rate + perOpDataSec/float64(min(r.Tasks, 64)))
	}
	// Client-side issue rate also caps throughput: each rank sustains a
	// bounded RPC rate.
	clientCap := float64(r.Tasks) * 2600
	if clientCap < rate {
		rate = clientCap
	}
	rate = src.Perturb(rate, 0.06)
	totalOps := int64(r.Tasks) * int64(r.ItemsPerTask)
	sec := float64(totalOps) / rate
	return MetaResult{OpsPerSec: rate, TotalOps: totalOps, TotalSec: sec}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

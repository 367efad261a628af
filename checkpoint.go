package plurality

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"plurality/internal/harness"
	"plurality/internal/snap"
	"plurality/internal/topo"
)

// SnapshotFormatVersion is the current snapshot blob format. Decoding a
// blob recorded under any other version fails with ErrSnapshotVersion:
// engine payloads are positional binary encodings, so cross-version
// restores would silently misinterpret state rather than degrade
// gracefully. Bump it whenever any engine's capture layout changes — or the
// meta JSON's field names do (version 2 switched SnapshotMeta.Spec to the
// stable snake_case wire tags the serving layer speaks; version 3 added the
// sharded engines' per-shard payload section — shard ladders, clocks, RNG
// substreams and parked-message arenas captured at a window barrier;
// version 4 switched the synchronous engine's payload to the packed
// word-per-node configuration, dropping the serialized tally matrix that
// is now rebuilt at restore; version 5 removed sharded execution, so a
// version-4 blob that carries the per-shard section is rejected instead of
// being misread as a serial payload — the serial layout is unchanged;
// version 6 replaced the per-node Poisson clocks' section, n generators and
// n stop flags, by the superposed clock's one generator; version 7 marks
// the change of what a leader or decentralized restore derives from its
// blob: C1, and with it C3, the record interval and the horizon, is the
// latency law's one value, not the estimate from the run's seed a version-6
// blob was captured under, so such a blob would go on under different
// parameters).
const SnapshotFormatVersion = 7

// snapshotMagic is the 8-byte blob signature.
const snapshotMagic = "PLURSNAP"

// Typed snapshot errors, matchable with errors.Is.
var (
	// ErrSnapshotFormat reports that the input is not a snapshot blob at
	// all (bad magic).
	ErrSnapshotFormat = errors.New("plurality: not a snapshot blob")
	// ErrSnapshotVersion reports a blob recorded under a different
	// SnapshotFormatVersion.
	ErrSnapshotVersion = errors.New("plurality: unsupported snapshot format version")
	// ErrSnapshotTruncated reports a blob that ends before its declared
	// structure is complete.
	ErrSnapshotTruncated = errors.New("plurality: truncated snapshot")
	// ErrSnapshotCorrupt reports a structurally invalid blob (checksum
	// mismatch, impossible lengths, state that fails validation).
	ErrSnapshotCorrupt = errors.New("plurality: corrupt snapshot")
	// ErrNoCheckpoint reports a checkpoint request against a protocol that
	// does not support capture/resume (see ProtocolInfo.Checkpointable).
	ErrNoCheckpoint = errors.New("plurality: protocol does not support checkpointing")
)

// CheckpointSpec configures mid-run snapshot capture; the zero value
// disables it. It lives on Spec, so every entry point — Run, RunMany,
// RunBatch, Sweep — can request snapshots.
type CheckpointSpec struct {
	// SnapshotAt requests one state capture the first time the run's
	// native clock reaches this value: virtual time steps for asynchronous
	// protocols, (parallel) rounds for synchronous ones — the same axis as
	// Result.Duration. For event-driven engines the capture happens after
	// the last event scheduled at or before SnapshotAt has executed, so no
	// extra event is injected and the trajectory is byte-identical to an
	// uninterrupted run. If the run terminates earlier, no snapshot is
	// taken. Must be >= 0; 0 disables capture.
	SnapshotAt float64 `json:"snapshot_at,omitempty"`
	// Halt stops the run right after the capture. The returned Result then
	// reflects the truncated run; the snapshot resumes it. Without Halt
	// the run continues to its normal end and the snapshot is a pure side
	// effect.
	Halt bool `json:"halt,omitempty"`
	// Every, when > 0, makes capture periodic from the first capture at
	// SnapshotAt: after a capture at native time t the next is taken the first time the clock reaches t + Every,
	// until the run ends. Each capture is the snapshot a chain of halted
	// runs would have taken there, each resumed with SnapshotAt = t + Every,
	// and the run's Result is that of an uninterrupted run. Must be finite
	// and >= 0; ignored when Halt is set. Runtime-only, like Sink: no wire
	// form, and not part of CanonicalBytes or checkpoint metadata.
	Every float64 `json:"-"`
	// Sink, when non-nil, receives each snapshot the moment it is taken —
	// the streaming observer of the checkpoint subsystem. The last snapshot
	// taken is also attached to Result.Snapshot either way. Runtime-only:
	// not serialized into checkpoint metadata.
	Sink func(*Snapshot) `json:"-"`
}

// SnapshotMeta is the self-describing header of a snapshot blob, stored as
// a JSON sidecar inside (and alongside) the binary payload.
type SnapshotMeta struct {
	// FormatVersion is the SnapshotFormatVersion the blob was recorded
	// under.
	FormatVersion int `json:"format_version"`
	// Protocol is the registry name of the captured run.
	Protocol string `json:"protocol"`
	// Time is the native-clock value at capture (virtual time or rounds).
	Time float64 `json:"time"`
	// Events is the number of kernel events executed at capture (0 for
	// round-based protocols).
	Events uint64 `json:"events"`
	// Spec is the captured run's configuration with runtime-only fields
	// (Observer, Checkpoint) cleared; Resume rebuilds the engine from it.
	Spec Spec `json:"spec"`
}

// Snapshot is one captured simulator state: versioned JSON metadata plus
// the engine's opaque binary payload. Encode/DecodeSnapshot convert it to
// and from a single self-contained blob; Resume continues the run.
// Snapshots are deterministic: capturing the same (protocol, Spec,
// SnapshotAt) twice yields byte-identical blobs. A snapshot taken in this
// process also holds the run's interaction graph in memory, so resuming it
// skips the graph build; a decoded blob rebuilds the graph from its spec,
// which yields the identical graph.
type Snapshot struct {
	meta    SnapshotMeta
	payload []byte
	// graph is the captured run's topology sampler. Memory-only: Encode
	// never writes it, DecodeSnapshot leaves it nil, and meta.Spec never
	// carries it.
	graph topo.Sampler
}

// Meta returns the snapshot's descriptive header.
func (s *Snapshot) Meta() SnapshotMeta { return s.meta }

// MetaJSON renders the header as indented JSON — the sidecar the CLI
// writes next to blob files.
func (s *Snapshot) MetaJSON() ([]byte, error) {
	return json.MarshalIndent(s.meta, "", "  ")
}

// Encode renders the snapshot as one self-contained blob:
//
//	magic "PLURSNAP" | u16 version | u32 metaLen | meta JSON |
//	u32 payloadLen | payload | u32 CRC-32 (IEEE, over everything before it)
//
// all fixed-width integers little-endian.
func (s *Snapshot) Encode() ([]byte, error) {
	metaJSON, err := json.Marshal(s.meta)
	if err != nil {
		return nil, fmt.Errorf("plurality: encoding snapshot meta: %w", err)
	}
	buf := make([]byte, 0, len(snapshotMagic)+2+4+len(metaJSON)+4+len(s.payload)+4)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(s.meta.FormatVersion))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(metaJSON)))
	buf = append(buf, metaJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.payload)))
	buf = append(buf, s.payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodeSnapshot parses a blob produced by Encode. Failures are typed —
// ErrSnapshotFormat, ErrSnapshotVersion, ErrSnapshotTruncated,
// ErrSnapshotCorrupt — and never panic, whatever the input (fuzzed in
// FuzzDecodeSnapshot).
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotTruncated, len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrSnapshotFormat
	}
	off := len(snapshotMagic)
	if len(data) < off+2+4 {
		return nil, fmt.Errorf("%w: header cut short at %d bytes", ErrSnapshotTruncated, len(data))
	}
	version := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if version != SnapshotFormatVersion {
		return nil, fmt.Errorf("%w: blob version %d, this build reads version %d",
			ErrSnapshotVersion, version, SnapshotFormatVersion)
	}
	metaLen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if metaLen < 0 || off+metaLen+4 > len(data) {
		return nil, fmt.Errorf("%w: meta length %d exceeds blob", ErrSnapshotTruncated, metaLen)
	}
	metaJSON := data[off : off+metaLen]
	off += metaLen
	payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if payloadLen < 0 || off+payloadLen+4 > len(data) {
		return nil, fmt.Errorf("%w: payload length %d exceeds blob", ErrSnapshotTruncated, payloadLen)
	}
	payload := data[off : off+payloadLen]
	off += payloadLen
	if off+4 != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(data)-off-4)
	}
	if got, want := crc32.ChecksumIEEE(data[:off]), binary.LittleEndian.Uint32(data[off:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrSnapshotCorrupt, got, want)
	}
	var meta SnapshotMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrSnapshotCorrupt, err)
	}
	if meta.FormatVersion != version {
		return nil, fmt.Errorf("%w: meta declares version %d inside a version-%d blob",
			ErrSnapshotCorrupt, meta.FormatVersion, version)
	}
	if meta.Protocol == "" {
		return nil, fmt.Errorf("%w: empty protocol name", ErrSnapshotCorrupt)
	}
	return &Snapshot{meta: meta, payload: append([]byte(nil), payload...)}, nil
}

// Resumer is the optional capability a Protocol implements to support
// checkpointing; all built-in protocols do. ResumeRun restores the engine
// state captured in an earlier snapshot of the same protocol and runs it to
// completion; perturb != 0 additionally folds a divergence label into every
// restored RNG stream (see ResumeOptions.Perturb). Implementations must
// honour spec.Checkpoint, so resumed runs can be checkpointed again.
type Resumer interface {
	ResumeRun(ctx context.Context, spec Spec, state []byte, perturb uint64) (*Result, error)
}

// ResumeOptions adjusts how a snapshot is resumed; nil keeps the captured
// configuration exactly.
type ResumeOptions struct {
	// Observer re-attaches a streaming observer (observers are not
	// serializable and therefore not part of the snapshot). It sees only
	// the points recorded after the restore; the accumulated trajectory in
	// the final Result is nevertheless complete.
	Observer Observer
	// MaxTime overrides the asynchronous horizon (> its captured value to
	// extend a run past its original deadline); 0 keeps the captured one.
	MaxTime float64
	// MaxSteps likewise overrides the round-based horizon; 0 keeps it.
	MaxSteps int
	// Perturb, when non-zero, deterministically decorrelates every RNG
	// stream from the captured continuation: the resumed run shares the
	// prefix but draws an independent future. Distinct labels give
	// distinct futures; the same label reproduces the same future. This is
	// the warm-start primitive behind RunBatchFrom and Sweep's WarmStart.
	Perturb uint64
	// DiscardTrajectory stops trajectory accumulation from the restore
	// onward (one-way: it cannot resurrect points a discarding capture
	// never stored). Points restored from the snapshot are kept; combine
	// with Observer to stream the rest at O(1) memory — the -stream mode
	// of a resumed CLI run.
	DiscardTrajectory bool
	// Checkpoint lets the resumed run take further snapshots.
	Checkpoint CheckpointSpec
}

// Resume continues a snapshotted run to completion and returns its final
// Result. With nil opts (or zero Perturb) the continuation is bit-exact:
// the Result is identical to the one an uninterrupted run would have
// produced — the roundtrip the snapshot golden tests pin. The snapshot's
// protocol must be registered and checkpointable.
func Resume(ctx context.Context, snapshot *Snapshot, opts *ResumeOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if snapshot == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrSnapshotCorrupt)
	}
	if len(snapshot.payload) == 0 {
		return nil, fmt.Errorf("%w: empty engine payload", ErrSnapshotTruncated)
	}
	p, err := Lookup(snapshot.meta.Protocol)
	if err != nil {
		return nil, err
	}
	rp, ok := p.(Resumer)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCheckpoint, snapshot.meta.Protocol)
	}
	spec := snapshot.meta.Spec
	var perturb uint64
	if opts != nil {
		spec.Observer = opts.Observer
		if opts.MaxTime > 0 {
			spec.MaxTime = opts.MaxTime
		}
		if opts.MaxSteps > 0 {
			spec.MaxSteps = opts.MaxSteps
		}
		if opts.DiscardTrajectory {
			spec.DiscardTrajectory = true
		}
		spec.Checkpoint = opts.Checkpoint
		perturb = opts.Perturb
	}
	tp, err := spec.check(snapshot.graph, true)
	if err != nil {
		return nil, fmt.Errorf("%w: captured spec invalid: %v", ErrSnapshotCorrupt, err)
	}
	res, err := rp.ResumeRun(ctx, withGraph(p, spec, tp), snapshot.payload, perturb)
	if err != nil {
		return nil, mapRestoreErr(err)
	}
	return res, nil
}

// mapRestoreErr lifts internal codec failures into the public typed errors
// while leaving every other error (cancellation, validation) untouched.
func mapRestoreErr(err error) error {
	switch {
	case errors.Is(err, snap.ErrTruncated):
		return fmt.Errorf("%w: %v", ErrSnapshotTruncated, err)
	case errors.Is(err, snap.ErrCorrupt):
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	default:
		return err
	}
}

// RunBatchFrom resumes one snapshot reps times on a bounded worker pool
// (workers <= 0 means GOMAXPROCS) — the warm-start batch: the snapshotted
// prefix is paid for once and every replication branches off it.
// Replication 0 is the bit-exact continuation; replication i > 0 resumes
// with Perturb label i, an independent deterministic future. Results are
// index-addressed, so the slice is identical for every worker count.
func RunBatchFrom(ctx context.Context, snapshot *Snapshot, reps, workers int) ([]*Result, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("plurality: RunBatchFrom with reps=%d", reps)
	}
	if snapshot == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrSnapshotCorrupt)
	}
	snapshot = snapshot.sharedGraph()
	results := make([]*Result, reps)
	err := harness.ForEachWorkers(ctx, reps, workers, func(ctx context.Context, i int) error {
		res, err := Resume(ctx, snapshot, &ResumeOptions{Perturb: uint64(i)})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// sharedGraph returns s when it holds its graph, else a copy holding the
// graph built once from its spec, so the replications resuming it share one
// read-only sampler (Sampler values are safe for concurrent readers)
// instead of each rebuilding it. A spec that fails validation returns s
// unchanged and Resume reports the failure.
func (s *Snapshot) sharedGraph() *Snapshot {
	if s.graph != nil {
		return s
	}
	spec := s.meta.Spec
	tp, err := spec.check(nil, true)
	if err != nil {
		return s
	}
	c := *s
	c.graph = tp
	return &c
}

package plurality

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"plurality/internal/topo"
)

// ErrUnknownProtocol is wrapped by Run and Lookup when no protocol is
// registered under the requested name.
var ErrUnknownProtocol = errors.New("unknown protocol")

// ProtocolInfo describes a registered protocol.
type ProtocolInfo struct {
	// Name is the registry key, e.g. "sync" or "3-majority".
	Name string
	// Family groups related protocols: "generation" for the paper's three
	// algorithms, "baseline" for the classical dynamics.
	Family string
	// Async reports whether the protocol runs on the asynchronous
	// simulator: its times are virtual time steps and its horizon is
	// Spec.MaxTime. Round-based protocols count synchronous rounds and
	// use Spec.MaxSteps.
	Async bool
	// TopologyAware reports that the protocol honours Spec.Topology: it
	// samples interaction partners through the configured graph rather
	// than assuming the clique. All built-in protocols are topology-aware;
	// externally registered protocols that ignore Spec.Topology should
	// leave this false so listings do not overpromise.
	TopologyAware bool
	// Checkpointable reports that the protocol honours Spec.Checkpoint and
	// implements Resumer, i.e. its runs can be snapshotted mid-flight and
	// resumed bit-exactly. All built-in protocols are checkpointable;
	// external protocols that do not implement the capability must leave
	// this false — Run rejects checkpoint requests against them instead of
	// silently ignoring the request.
	Checkpointable bool
	// Description is a one-line summary for listings.
	Description string
}

// Protocol is one runnable consensus protocol. Implementations registered
// via Register become available to Run under their Info().Name. Run
// validates the Spec before calling the implementation, so a Protocol may
// assume the shared invariants (N >= 2, K >= 1, a well-formed assignment,
// Eps in [0, 1), a buildable latency spec) hold.
type Protocol interface {
	// Info identifies the protocol.
	Info() ProtocolInfo
	// Run executes one run under spec, honouring ctx cancellation.
	Run(ctx context.Context, spec Spec) (*Result, error)
}

var (
	registryMu    sync.RWMutex
	registry      = map[string]Protocol{}
	registryOrder []string
)

// Register adds a protocol to the registry under its Info().Name. The
// built-in protocols self-register; external packages may register
// additional dynamics (new update rules, new schedulers) and have them
// served by Run, the CLIs and the sweep layer without further wiring.
// Register panics on an empty or duplicate name, as registration happens
// at init time where a bad name is a programming error.
func Register(p Protocol) {
	name := p.Info().Name
	if name == "" {
		panic("plurality: Register with empty protocol name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("plurality: protocol %q registered twice", name))
	}
	registry[name] = p
	registryOrder = append(registryOrder, name)
}

// Protocols returns every registered protocol name in registration order:
// the paper's protocols first ("sync", "leader", "decentralized"), then the
// baselines, then anything registered by the caller.
func Protocols() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), registryOrder...)
}

// Lookup resolves a protocol by name, errors.Is-matching
// ErrUnknownProtocol when absent.
func Lookup(name string) (Protocol, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("plurality: %w %q (have %v)", ErrUnknownProtocol, name, registryOrder)
	}
	return p, nil
}

// Info returns the descriptor of a registered protocol.
func Info(name string) (ProtocolInfo, error) {
	p, err := Lookup(name)
	if err != nil {
		return ProtocolInfo{}, err
	}
	return p.Info(), nil
}

// Run executes one run of the named protocol under spec. It is the single
// entry point behind which every protocol — the paper's three algorithms
// and the classical baselines — lives; Protocols() lists the valid names.
// The spec is validated once here, ctx cancellation and deadlines are
// honoured promptly by every engine (a cancelled run returns ctx.Err()),
// and a nil ctx means context.Background(). Runs are deterministic: the
// same (name, spec) pair, including Seed, yields an identical Result.
func Run(ctx context.Context, name string, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	tp, err := spec.check(nil, true)
	if err != nil {
		return nil, err
	}
	if spec.Checkpoint.SnapshotAt > 0 && !p.Info().Checkpointable {
		return nil, fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	return p.Run(ctx, withGraph(p, spec, tp))
}

// withGraph hands the sampler validation built to p's run when p is a
// built-in protocol, whose prologue then skips the rebuild. Other protocols
// get spec unchanged (see Spec.graph).
func withGraph(p Protocol, spec Spec, tp topo.Sampler) Spec {
	if _, ok := p.(builtin); ok {
		spec.graph = tp
	}
	return spec
}

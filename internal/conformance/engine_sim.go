package conformance

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"hydra/internal/fheop"
	"hydra/internal/hw"
	"hydra/internal/isa"
	"hydra/internal/mapping"
	"hydra/internal/sim"
	"hydra/internal/task"
)

// simCards is the machine shape the sim engine schedules every program onto:
// four cards, two per server, matching the smallest multi-server Hydra fleet.
const simCards = 4

// simReport is what the sim engine produces instead of a ciphertext: the
// evidence that the program lowered to a legal, decodable, schedulable
// instruction stream for the modeled accelerator.
type simReport struct {
	Steps    int
	Tasks    int
	ISABytes int
	Makespan float64
}

// runSim lowers the program onto the paper-scale accelerator model: each
// conformance op maps to the corresponding mapping-layer procedure (the same
// recipes the figures use, and the matrix's only coverage of
// mapping.MatVec/FC/PolyEval/Bootstrap), and the resulting task program must
// pass checkSchedule. The numeric check of the other engines becomes a
// schedule-legality and decode check here: the modeled machine executes op
// *counts*, not residues.
func runSim(s *ProgramSpec) (*simReport, error) {
	scheme := hw.PaperScheme()
	b := task.NewBuilder(simCards, 2)
	ctx := mapping.NewContext(b, scheme, simCards)
	slots := s.Slots()
	k := isqrt(slots)
	for i, op := range s.Ops {
		label := fmt.Sprintf("%02d-%s", i, op.Op)
		var err error
		switch op.Op {
		case "add", "sub", "neg", "addconst":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.HAdd, 1), 0, label)
		case "conjugate":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.Conjugate, 1), 0, label)
		case "rotate":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.Rotation, 1), 0, label)
		case "mul":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.CMult, 1, fheop.Rescale, 1), 0, label)
		case "mulconst", "mulplain":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.PMult, 1, fheop.Rescale, 1), 0, label)
		case "rotsum", "rotsumext":
			err = ctx.DistributeLocal(1, fheop.Of(fheop.Rotation, op.K-1, fheop.HAdd, op.K-1), 0, label)
		case "lintrans":
			var groups int
			groups, err = transformGroups(op, slots)
			if err != nil {
				break
			}
			if op.BS > 0 {
				err = ctx.MatVec(mapping.MatVecOptions{BS: op.BS, GS: groups}, label)
			} else {
				err = ctx.FC(groups, label)
			}
		case "pcmm":
			err = ctx.DistributeLocal(k, mapping.PCMMUnit, 1, label)
		case "ccmm":
			err = ctx.DistributeLocal(k, mapping.CCMMUnit, 1, label)
		case "poly":
			err = ctx.PolyEval(len(op.Coeffs)-1, label)
		case "bootstrap":
			com := hw.HydraNetwork().IntraServer.Transfer(ctx.CtBytes())
			times := mapping.OpTimesFor(hw.HydraCard(), scheme, scheme.EffectiveLimb, com)
			err = ctx.Bootstrap(mapping.DefaultBootstrapOptions(scheme, simCards, times), label)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("sim lowering op %d (%s): %w", i, op.Op, err)
		}
	}
	return checkSchedule(b.Build(), len(s.Ops) > 0)
}

// checkSchedule is the schedule-legality battery every task lowering (the
// sim engine's mapping procedures, the ir engine's fhir.LowerTask) must
// pass: the program validates, survives an ISA encode→decode→re-encode
// round trip byte-stably, validates again once decoded, and schedules on
// the Hydra fleet config with a finite makespan, nonzero when the source
// program has any op.
func checkSchedule(prog *task.Program, nonEmpty bool) (*simReport, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("task program invalid: %w", err)
	}
	// The two encodings must be byte-identical or the decoder lost
	// information.
	bin, err := isa.Marshal(prog)
	if err != nil {
		return nil, fmt.Errorf("isa marshal: %w", err)
	}
	decoded, err := isa.Unmarshal(bin)
	if err != nil {
		return nil, fmt.Errorf("isa unmarshal: %w", err)
	}
	if err := decoded.Validate(); err != nil {
		return nil, fmt.Errorf("decoded program invalid: %w", err)
	}
	bin2, err := isa.Marshal(decoded)
	if err != nil {
		return nil, fmt.Errorf("isa re-marshal: %w", err)
	}
	if !bytes.Equal(bin, bin2) {
		return nil, fmt.Errorf("isa round trip not byte-stable (%d vs %d bytes)", len(bin), len(bin2))
	}
	res, err := sim.Run(decoded, sim.HydraConfig())
	if err != nil {
		return nil, fmt.Errorf("sim run: %w", err)
	}
	if math.IsNaN(res.Makespan) || math.IsInf(res.Makespan, 0) || res.Makespan < 0 {
		return nil, fmt.Errorf("sim makespan %v not finite", res.Makespan)
	}
	if nonEmpty && res.Makespan <= 0 {
		return nil, fmt.Errorf("non-empty program scheduled with zero makespan")
	}
	tasks := 0
	for _, st := range decoded.Steps {
		for _, cc := range st.Compute {
			tasks += len(cc)
		}
	}
	return &simReport{
		Steps:    len(decoded.Steps),
		Tasks:    tasks,
		ISABytes: len(bin),
		Makespan: res.Makespan,
	}, nil
}

// transformGroups counts the giant-step groups (BS > 0) or non-zero
// diagonals (naive) of a lintrans op, sizing the matvec emission like the
// hefloat engines size their plans.
func transformGroups(op OpSpec, slots int) (int, error) {
	m, err := GenMatrix(op.Matrix, slots)
	if err != nil {
		return 0, err
	}
	diags := map[int]bool{}
	for j := range m {
		for jj, v := range m[j] {
			if v != 0 {
				// Diagonal index of entry (row j, col jj) in the packed
				// diagonal decomposition out[j] = Σ_d diag_d[j]·in[j+d].
				d := ((jj-j)%slots + slots) % slots
				diags[d] = true
			}
		}
	}
	if op.BS <= 0 {
		return len(diags), nil
	}
	groups := map[int]bool{}
	for d := range diags {
		groups[d-d%op.BS] = true
	}
	gs := make([]int, 0, len(groups))
	for g := range groups {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	return len(gs), nil
}

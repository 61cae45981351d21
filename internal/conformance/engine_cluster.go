package conformance

import (
	"context"
	"fmt"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/fhir"
	"hydra/internal/serve"
)

// clusterCards is the grant size every conformance program is lowered for,
// by the cluster engine and by the ir engine's cluster check alike. Two
// cards force real switch traffic (every program with more than one output
// term crosses the card boundary) while keeping the matrix fast.
const clusterCards = 2

// runCluster is the cluster engine: the program is rebuilt on the fhir IR,
// CSE merges its shared rotations (the BSGS baby steps several transforms
// read), CompileNaive places every rescale and relinearization eagerly, and
// fhir.LowerCluster turns the result into per-card streams submitted as one
// 2-card job. The placement is the unoptimized one, so this engine stays
// distinct from the ir engine, which lowers the fully optimized program.
func runCluster(env *Env, srv *serve.Server, s *ProgramSpec) (*ckks.Ciphertext, error) {
	prog, err := buildIRProgram(env, s)
	if err != nil {
		return nil, fmt.Errorf("ir frontend: %w", err)
	}
	naive, err := fhir.CompileNaive(fhir.CSE(prog), s.Params.Levels)
	if err != nil {
		return nil, fmt.Errorf("ir compile: %w", err)
	}
	return submitCluster(env, srv, naive, s)
}

// submitCluster lowers a legalized program onto clusterCards cards and runs
// it on the functional multi-card runtime through the serving layer: the
// streams are submitted as one job against the environment's fleet server,
// whose ClusterBackend builds a fresh goroutine-card cluster on the granted
// placement. Every input is preloaded on every card, as LowerCluster
// requires; the result is register "out" on card 0.
func submitCluster(env *Env, srv *serve.Server, p *fhir.Program, s *ProgramSpec) (*ckks.Ciphertext, error) {
	progs, err := fhir.LowerCluster(p, env.Encoder, clusterCards)
	if err != nil {
		return nil, err
	}
	inputs, err := encryptInputs(env, s, p.InputLevel)
	if err != nil {
		return nil, err
	}
	var out *ckks.Ciphertext
	job := &serve.Job{
		ID:    "conformance/" + s.Name,
		Cards: clusterCards,
		BuildCluster: func(cards int) (*serve.ClusterJob, error) {
			if cards != clusterCards {
				return nil, fmt.Errorf("conformance: lowered for %d cards, granted %d", clusterCards, cards)
			}
			return &serve.ClusterJob{
				Programs: progs,
				Preload: func(cl *cluster.Cluster) error {
					for card := 0; card < cards; card++ {
						for name, ct := range inputs {
							cl.Load(card, name, ct)
						}
					}
					return nil
				},
				Collect: func(cl *cluster.Cluster) error {
					ct, err := cl.Get(0, "out")
					out = ct
					return err
				},
			}, nil
		},
	}
	ticket, err := srv.Submit(job)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := ticket.Wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/fhir"
	"hydra/internal/hw"
	"hydra/internal/serve"
)

// openRate is the fhe-bsgs-open arrival rate in jobs per second, about two
// thirds of the capacity measured at the commit that introduced the
// benchmark (one 4-card job at a time, ~85 ms each on 2 CPUs, ~11.5 jobs/s).
// At half capacity about 13% of jobs queued, so the p90 latency sat on the
// edge between queued and unqueued jobs and moved 7-19% between sets of ten
// seeds; at this rate about a fifth of the jobs queue and the p90 stays
// among them. Lower rates left the cards idle between jobs, which made
// service times noisier still. The rate is fixed here and never derived
// from the code under test.
const openRate = 8.0

// slotTolerance is the largest slot error a decrypted result may show
// against fhir.Interpret of the source program. Correct results sit near
// 1e-7.
const slotTolerance = 1e-5

// jobTimeout bounds one job; a job that exceeds it fails.
const jobTimeout = 2 * time.Minute

// fheSpec describes one encrypted-inference workload.
type fheSpec struct {
	name          string
	logN, levels  int
	fleetCards    int
	grantCards    int
	tenants       int     // distinct models, drawn per job
	closedClients int     // > 0: closed loop with this many clients (at most nproc)
	rate          float64 // open loop: arrivals per second
	setups        int     // set-up repetitions; setup_s is their median
	warmup        int     // verified jobs before the measured phase
	build         func(slots int, diags [][]complex128, key string) (*fhir.Program, error)
}

var resnetClosed = fheSpec{
	name: "fhe-resnet-closed", logN: 13, levels: 6, fleetCards: 2, grantCards: 1,
	tenants: 1, closedClients: 2, setups: 5, warmup: 2, build: resnetProgram,
}

var bsgsOpen = fheSpec{
	name: "fhe-bsgs-open", logN: 12, levels: 3, fleetCards: 4, grantCards: 4,
	tenants: 16, rate: openRate, setups: 5, warmup: 4, build: bsgsProgram,
}

// fheEnv is the set-up state of an FHE workload: parameters, keys and the
// tenant models, as written (srcs, the oracle's input) and compiled (progs,
// what the server runs).
type fheEnv struct {
	spec    fheSpec
	srcs    []*fhir.Program
	params  *ckks.Parameters
	pk      *ckks.PublicKey
	enc     *ckks.Encoder
	dec     *ckks.Decryptor
	eval    *ckks.Evaluator
	progs   []*fhir.Program
	keygen  time.Duration
	compile time.Duration
	setup   time.Duration
}

// sourcePrograms builds every tenant's uncompiled model from the seed.
func sourcePrograms(spec fheSpec, seed int64) ([]*fhir.Program, error) {
	slots := 1 << (spec.logN - 1)
	srcs := make([]*fhir.Program, spec.tenants)
	for t := range srcs {
		p, err := spec.build(slots, modelWeights(seed, t, slots), fmt.Sprintf("t%d", t))
		if err != nil {
			return nil, fmt.Errorf("model %d: %w", t, err)
		}
		srcs[t] = p
	}
	return srcs, nil
}

// setupFHE derives the parameters, compiles every model and generates the
// keys its rotations need; the time it takes is setup_s.
func setupFHE(spec fheSpec, srcs []*fhir.Program, seed int64) (*fheEnv, error) {
	start := time.Now()
	params := ckks.TestParameters(spec.logN, spec.levels)
	env := &fheEnv{spec: spec, srcs: srcs, params: params, enc: ckks.NewEncoder(params)}

	t := time.Now()
	rotSet := map[int]bool{}
	conj := false
	for i, src := range srcs {
		p, err := fhir.Compile(src, fhir.Options{Levels: spec.levels})
		if err != nil {
			return nil, fmt.Errorf("compile model %d: %w", i, err)
		}
		rs, c := p.Rotations()
		for _, r := range rs {
			rotSet[r] = true
		}
		conj = conj || c
		env.progs = append(env.progs, p)
	}
	rots := make([]int, 0, len(rotSet))
	for r := range rotSet {
		rots = append(rots, r)
	}
	sort.Ints(rots)
	env.compile = time.Since(t)

	t = time.Now()
	kg := ckks.NewKeyGenerator(params, newRand(seed, streamKeys, 0).Int63())
	sk := kg.GenSecretKey()
	env.pk = kg.GenPublicKey(sk)
	env.eval = ckks.NewEvaluator(params, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots, conj))
	env.dec = ckks.NewDecryptor(params, sk)
	env.keygen = time.Since(t)
	env.setup = time.Since(start)
	return env, nil
}

// jobRecord is one job's inputs, result and timestamps. The hook stamps
// (execStart .. collectEnd) are taken only in traced phases.
type jobRecord struct {
	id, tenant int
	want       []complex128
	ct, out    *ckks.Ciphertext

	due, submitStart, submitted, done, verified time.Time
	execStart, lowerEnd                         time.Time
	preloadStart, preloadEnd                    time.Time
	collectStart, collectEnd                    time.Time

	res     *serve.Result
	slotErr float64
	err     error
}

// latency is submit-to-verified, or due-to-verified for open-loop jobs.
func (r *jobRecord) latency() time.Duration {
	if !r.due.IsZero() {
		return r.verified.Sub(r.due)
	}
	return r.verified.Sub(r.submitStart)
}

// spans turns a traced record into its job's span tree.
func (r *jobRecord) spans() []span {
	start := r.submitStart
	if !r.due.IsZero() {
		start = r.due
	}
	return []span{
		{"job", r.id, start, r.verified},
		{"serve.queue", r.id, r.submitStart, r.execStart},
		{"serve.exec", r.id, r.execStart, r.collectEnd},
		{"fhir.lower", r.id, r.execStart, r.lowerEnd},
		{"cluster.preload", r.id, r.preloadStart, r.preloadEnd},
		{"cluster.run", r.id, r.preloadEnd, r.collectStart},
		{"cluster.collect", r.id, r.collectStart, r.collectEnd},
		{"ckks.decrypt", r.id, r.done, r.verified},
	}
}

// fheRunner drives jobs through one server.
type fheRunner struct {
	env  *fheEnv
	srv  *serve.Server
	seed int64
}

// prepare draws input number draw, computes the oracle output with
// fhir.Interpret on the tenant's source program (never the compiled one, so
// a miscompile shows as a wrong result) and encrypts the input: all
// client-side work that happens before the job is due.
func (fr *fheRunner) prepare(id, draw, tenant int, encr *ckks.Encryptor) (*jobRecord, error) {
	src := fr.env.srcs[tenant]
	in := jobInput(fr.seed, draw, src.Slots)
	want, err := fhir.Interpret(src, map[string][]complex128{inputName: in})
	if err != nil {
		return nil, fmt.Errorf("interpret job %d: %w", id, err)
	}
	pt, err := fr.env.enc.EncodeAtLevel(in, fr.env.params.DefaultScale(), fr.env.spec.levels)
	if err != nil {
		return nil, fmt.Errorf("encode job %d: %w", id, err)
	}
	return &jobRecord{id: id, tenant: tenant, want: want, ct: encr.Encrypt(pt)}, nil
}

// job wraps a record as a serve job whose cluster body is lowered from the
// tenant's compiled program on every grant.
func (fr *fheRunner) job(rec *jobRecord, traced bool) *serve.Job {
	prog := fr.env.progs[rec.tenant]
	stamp := func(t *time.Time) {
		if traced {
			*t = time.Now()
		}
	}
	return &serve.Job{
		ID:      fmt.Sprintf("job-%d", rec.id),
		Tenant:  fmt.Sprintf("tenant-%d", rec.tenant),
		Cards:   fr.env.spec.grantCards,
		Timeout: jobTimeout,
		BuildCluster: func(cards int) (*serve.ClusterJob, error) {
			stamp(&rec.execStart)
			progs, err := fhir.LowerCluster(prog, fr.env.enc, cards)
			stamp(&rec.lowerEnd)
			if err != nil {
				return nil, err
			}
			return &serve.ClusterJob{
				Programs: progs,
				Preload: func(cl *cluster.Cluster) error {
					stamp(&rec.preloadStart)
					for c := range cl.Cards {
						cl.Load(c, inputName, rec.ct)
					}
					stamp(&rec.preloadEnd)
					return nil
				},
				Collect: func(cl *cluster.Cluster) error {
					stamp(&rec.collectStart)
					out, err := cl.Get(0, "out")
					rec.out = out
					stamp(&rec.collectEnd)
					return err
				},
			}, nil
		},
	}
}

// await waits for a submitted job, decrypts its result and checks it against
// the oracle. The record's inputs and ciphertexts are dropped afterwards.
func (fr *fheRunner) await(rec *jobRecord, tk *serve.Ticket) {
	defer func() { rec.ct, rec.out, rec.want = nil, nil, nil }()
	res, err := tk.Wait(context.Background())
	rec.done = time.Now()
	if err != nil {
		rec.err = err
		return
	}
	rec.res = res
	got := fr.env.enc.Decode(fr.env.dec.Decrypt(rec.out))
	rec.slotErr = maxSlotError(got, rec.want)
	rec.verified = time.Now()
	if !(rec.slotErr <= slotTolerance) {
		rec.err = fmt.Errorf("job %d: max slot error %.3g exceeds %.0e", rec.id, rec.slotErr, slotTolerance)
	}
}

// submit submits a prepared job and waits for its verified result.
func (fr *fheRunner) submit(rec *jobRecord, traced bool) {
	rec.submitStart = time.Now()
	tk, err := fr.srv.Submit(fr.job(rec, traced))
	rec.submitted = time.Now()
	if err != nil {
		rec.err = err
		return
	}
	fr.await(rec, tk)
}

// phaseResult is one measured phase: every job record and the wall time
// from the first submission to the last verified result.
type phaseResult struct {
	recs []*jobRecord
	wall time.Duration
}

// closedLoop runs clients that each submit their next job only after the
// previous one is verified, until dur has elapsed. Client c's i-th job gets
// the same input in every block; block only makes the job ids distinct.
func (fr *fheRunner) closedLoop(block int, dur time.Duration, traced bool) (*phaseResult, error) {
	clients := min(fr.env.spec.closedClients, runtime.NumCPU())
	var mu sync.Mutex
	var recs []*jobRecord
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, newRand(fr.seed, streamEncrypt, c).Int63())
			for i := 0; time.Since(start) < dur; i++ {
				draw := c*100_000 + i
				rec, err := fr.prepare(block*1_000_000+draw, draw, 0, encr)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				fr.submit(rec, traced)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return &phaseResult{recs: recs, wall: time.Since(start)}, firstErr
}

// openLoop submits jobs at the seed's arrival schedule regardless of
// completions. One goroutine submits on time; the calling goroutine verifies
// results in submission order. Inputs are encrypted before the phase starts.
// Every block replays the same schedule, tenants and inputs; block only
// makes the job ids distinct.
func (fr *fheRunner) openLoop(block int, dur time.Duration, traced bool) (*phaseResult, error) {
	sched := arrivalSchedule(fr.seed, fr.env.spec.rate, dur, fr.env.spec.tenants)
	encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, newRand(fr.seed, streamEncrypt, 0).Int63())
	recs := make([]*jobRecord, len(sched))
	for i, a := range sched {
		rec, err := fr.prepare(block*1_000_000+i, i, a.Tenant, encr)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	type sent struct {
		rec *jobRecord
		tk  *serve.Ticket
	}
	tickets := make(chan sent, len(recs)) // one slot per job: the generator never blocks
	start := time.Now()
	go func() {
		defer close(tickets)
		for i, rec := range recs {
			rec.due = start.Add(sched[i].At)
			if d := time.Until(rec.due); d > 0 {
				time.Sleep(d)
			}
			rec.submitStart = time.Now()
			tk, err := fr.srv.Submit(fr.job(rec, traced))
			rec.submitted = time.Now()
			if err != nil {
				rec.err = err
			}
			tickets <- sent{rec, tk}
		}
	}()
	for s := range tickets {
		if s.rec.err == nil {
			fr.await(s.rec, s.tk)
		}
	}
	return &phaseResult{recs: recs, wall: time.Since(start)}, nil
}

// warm runs the spec's warm-up jobs one at a time so lazy set-up (pools,
// caches, first-use allocations) finishes before timing.
func (fr *fheRunner) warm() []*jobRecord {
	encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, newRand(fr.seed, streamEncrypt, 1<<20).Int63())
	var recs []*jobRecord
	for i := 0; i < fr.env.spec.warmup; i++ {
		rec, err := fr.prepare(900_000_000+i, 900_000_000+i, i%fr.env.spec.tenants, encr)
		if err != nil {
			rec = &jobRecord{id: 900_000_000 + i, err: err}
		} else {
			fr.submit(rec, false)
		}
		recs = append(recs, rec)
	}
	return recs
}

// block runs one measured block of length dur; idx keeps its job ids apart
// from those of the other blocks.
func (fr *fheRunner) block(idx int, dur time.Duration, traced bool) (*phaseResult, error) {
	if fr.env.spec.closedClients > 0 {
		return fr.closedLoop(idx, dur, traced)
	}
	return fr.openLoop(idx, dur, traced)
}

// measure runs the measured blocks and merges them into an untraced and a
// traced phase (empty without tracing).
func (fr *fheRunner) measure(rc runConfig) (untraced, traced *phaseResult, err error) {
	untraced, traced = &phaseResult{}, &phaseResult{}
	blocks, dur := measuredBlocks(rc)
	for i, tr := range blocks {
		pr, err := fr.block(i, dur, tr)
		if err != nil {
			return nil, nil, err
		}
		dst := untraced
		if tr {
			dst = traced
		}
		dst.recs, dst.wall = append(dst.recs, pr.recs...), dst.wall+pr.wall
	}
	return untraced, traced, nil
}

// endToEnd computes the user-visible metrics of a phase.
func (pr *phaseResult) endToEnd() (p50, p90, tput float64, ok int) {
	var lat []float64
	for _, r := range pr.recs {
		if r.err == nil {
			lat = append(lat, ms(r.latency()))
		}
	}
	return median(lat), percentile(lat, 0.9), float64(len(lat)) / pr.wall.Seconds(), len(lat)
}

// runFHE sets up, warms, measures and (when tracing) probes an FHE workload.
func runFHE(spec fheSpec, rc runConfig) (*outcome, error) {
	srcs, err := sourcePrograms(spec, rc.seed)
	if err != nil {
		return nil, err
	}
	var env *fheEnv
	var setups, keygens, compiles []time.Duration
	for i := 0; i < spec.setups; i++ {
		e, err := setupFHE(spec, srcs, rc.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if env == nil {
			env = e
		}
		setups, keygens, compiles = append(setups, e.setup), append(keygens, e.keygen), append(compiles, e.compile)
	}

	srv, err := serve.New(serve.Config{
		Fleet:   hw.Fleet{Cards: spec.fleetCards, CardsPerServer: spec.fleetCards},
		Backend: &serve.ClusterBackend{Params: env.params, Eval: env.eval},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	fr := &fheRunner{env: env, srv: srv, seed: rc.seed}

	all := fr.warm()
	measured, traced, err := fr.measure(rc)
	if err != nil {
		return nil, err
	}
	all = append(append(all, measured.recs...), traced.recs...)

	out := &outcome{correct: true, attempted: len(all)}
	worst := 0.0
	for _, r := range all {
		if r.err != nil {
			out.failed++
			out.correct = false
			if out.failed <= 3 {
				fmt.Fprintf(os.Stderr, "e2ebench: %v\n", r.err)
			}
		} else {
			worst = math.Max(worst, r.slotErr)
		}
	}
	p50, p90, tput, n := measured.endToEnd()
	fmt.Printf("%s: %d verified jobs in %.2fs (%d attempted in this run, warm-up included), worst slot error %.3g (tolerance %.0e)\n",
		spec.name, n, measured.wall.Seconds(), len(all), worst, slotTolerance)
	if n == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	out.endToEnd = map[string]metric{
		"latency_p50_ms":        {p50, "ms"},
		"latency_p90_ms":        {p90, "ms"},
		"throughput_jobs_per_s": {tput, "1/s"},
		"setup_s":               {medianDur(setups, time.Second), "s"},
		"peak_rss_mb":           {peakRSSMB(), "MiB"},
	}
	if rc.trace {
		layers, err := fr.layerMetrics(rc, measured, traced, keygens, compiles)
		if err != nil {
			return nil, err
		}
		out.perLayer = layers
	}
	return out, nil
}

// layerMetrics reports the traced phase's per-layer split, the exact op
// counts of the lowered programs, the unit-cost probes and the tracing
// overhead against the untraced phase.
func (fr *fheRunner) layerMetrics(rc runConfig, untraced, traced *phaseResult, keygens, compiles []time.Duration) (map[string]metric, error) {
	var spans []span
	var wait, exec, submit, lower, run []time.Duration
	lag := time.Duration(0)
	for _, r := range traced.recs {
		if r.err != nil {
			continue
		}
		spans = append(spans, r.spans()...)
		wait = append(wait, r.res.QueueWait)
		exec = append(exec, r.res.ExecTime)
		submit = append(submit, r.submitted.Sub(r.submitStart))
		l := r.lowerEnd.Sub(r.execStart)
		lower = append(lower, l)
		run = append(run, r.res.ExecTime-l-r.preloadEnd.Sub(r.preloadStart)-r.collectEnd.Sub(r.collectStart))
		if !r.due.IsZero() {
			lag = max(lag, r.submitStart.Sub(r.due))
		}
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("traced phase completed no job")
	}
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tracePath := filepath.Join(rc.out, fmt.Sprintf("trace-%s-seed%d.json", fr.env.spec.name, rc.seed))
	if err := writeChromeTrace(tracePath, spans, currentProvenance(fr.env.spec.name, rc)); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("wrote Chrome trace-event JSON to %s\n", tracePath)
	printSelfTimes(os.Stdout, spans, len(wait))

	p50u, _, tputU, _ := untraced.endToEnd()
	p50t, _, tputT, _ := traced.endToEnd()
	m := map[string]metric{
		"trace.overhead_latency_pct":    {100 * (p50t/p50u - 1), "%"},
		"trace.overhead_throughput_pct": {100 * (tputU/tputT - 1), "%"},
		"serve.queue_wait_p50_ms":       {percentileDur(wait, 0.5), "ms"},
		"serve.queue_wait_p90_ms":       {percentileDur(wait, 0.9), "ms"},
		"serve.exec_p50_ms":             {medianDur(exec, time.Millisecond), "ms"},
		"serve.submit_us":               {medianDur(submit, time.Microsecond), "us"},
		"fhir.compile_ms":               {medianDur(compiles, time.Millisecond), "ms"},
		"fhir.lower_p50_ms":             {medianDur(lower, time.Millisecond), "ms"},
		"cluster.run_p50_ms":            {medianDur(run, time.Millisecond), "ms"},
		"ckks.keygen_s":                 {medianDur(keygens, time.Second), "s"},
		"loadgen.lag_max_ms":            {ms(lag), "ms"},
		"loadgen.jobs":                  {float64(len(wait)), "count"},
	}
	counts, err := fr.opCounts()
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		m[k] = v
	}
	for k, v := range fr.unitCosts() {
		m[k] = v
	}
	// Computed, not measured: the share of the cluster run the counted ops
	// would take at their probed unit costs.
	cost := m["cluster.rotate_per_job"].Value*m["ckks.rotate_us"].Value +
		m["cluster.cmult_per_job"].Value*m["ckks.mulrelin_us"].Value +
		m["cluster.pmult_per_job"].Value*m["ckks.mulplain_us"].Value +
		m["cluster.rescale_per_job"].Value*m["ckks.rescale_us"].Value +
		m["cluster.send_per_job"].Value*(m["ckks.marshal_us"].Value+m["ckks.unmarshal_us"].Value)
	m["cluster.compute_cover_frac"] = metric{cost / 1000 / m["cluster.run_p50_ms"].Value, "ratio"}
	fmt.Println("computed (not measured): cluster.bytes_per_job = sends x len(ckks.MarshalCiphertext); cluster.compute_cover_frac = sum(count x unit cost) / cluster.run_p50_ms")
	return withAllLayerMetrics(m), nil
}

// opCounts reads exact per-job op counts from the lowered instruction
// streams (averaged over the tenant models) and fhir.Measure, and computes
// the bytes one job sends by running tenant 0's lowering once and
// marshalling every sent register.
func (fr *fheRunner) opCounts() (map[string]metric, error) {
	ops := map[cluster.OpCode]float64{}
	ks := 0.0
	for _, p := range fr.env.progs {
		progs, err := fhir.LowerCluster(p, fr.env.enc, fr.env.spec.grantCards)
		if err != nil {
			return nil, err
		}
		for _, card := range progs {
			for _, ins := range card {
				ops[ins.Op]++
			}
		}
		ks += float64(fhir.Measure(p).KeySwitch)
	}
	n := float64(len(fr.env.progs))
	bytes, err := fr.sentBytes()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"fhir.keyswitch_per_job":  {ks / n, "count"},
		"cluster.rotate_per_job":  {ops[cluster.OpRotate] / n, "count"},
		"cluster.cmult_per_job":   {ops[cluster.OpCMult] / n, "count"},
		"cluster.pmult_per_job":   {ops[cluster.OpPMult] / n, "count"},
		"cluster.rescale_per_job": {ops[cluster.OpRescale] / n, "count"},
		"cluster.send_per_job":    {ops[cluster.OpSend] / n, "count"},
		"cluster.bytes_per_job":   {bytes, "bytes"},
	}, nil
}

func (fr *fheRunner) sentBytes() (float64, error) {
	progs, err := fhir.LowerCluster(fr.env.progs[0], fr.env.enc, fr.env.spec.grantCards)
	if err != nil {
		return 0, err
	}
	encr := ckks.NewEncryptor(fr.env.params, fr.env.pk, 1)
	rec, err := fr.prepare(-1, -1, 0, encr)
	if err != nil {
		return 0, err
	}
	cl := cluster.New(fr.env.params, fr.env.eval, len(progs))
	for c := range cl.Cards {
		cl.Load(c, inputName, rec.ct)
	}
	if err := cl.Run(context.Background(), progs); err != nil {
		return 0, err
	}
	total := 0
	for c, card := range progs {
		for _, ins := range card {
			if ins.Op != cluster.OpSend {
				continue
			}
			ct, err := cl.Get(c, ins.Src1)
			if err != nil {
				return 0, err
			}
			total += len(ckks.MarshalCiphertext(ct))
		}
	}
	return float64(total), nil
}

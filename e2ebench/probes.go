package main

import (
	"fmt"
	"sort"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/ring"
)

// perLayerNames is every per-layer metric the benchmark reports, in the
// order of BENCHMARK.json. A per-layer metric a workload does not exercise
// (the serve queue of sim-table2, the simulator of an FHE workload) reads 0.
var perLayerNames = []string{
	"serve.queue_wait_p50_ms", "serve.queue_wait_p90_ms", "serve.exec_p50_ms", "serve.submit_us",
	"fhir.compile_ms", "fhir.lower_p50_ms", "fhir.keyswitch_per_job",
	"cluster.run_p50_ms", "cluster.rotate_per_job", "cluster.cmult_per_job", "cluster.pmult_per_job",
	"cluster.rescale_per_job", "cluster.send_per_job", "cluster.bytes_per_job", "cluster.compute_cover_frac",
	"ckks.rotate_us", "ckks.mulrelin_us", "ckks.mulplain_us", "ckks.rescale_us", "ckks.encode_ms",
	"ckks.marshal_us", "ckks.unmarshal_us", "ckks.encrypt_ms", "ckks.decrypt_decode_ms", "ckks.keygen_s",
	"ring.ntt_us", "ring.intt_us", "ring.automorphism_ntt_us", "ring.mulcoeffsadd_us",
	"mapping.build_s", "mapping.alloc_mb", "sim.run_s", "sim.tasks", "sim.tasks_per_s", "sim.alloc_mb",
	"sim.mallocs_per_task", "experiments.table2_s", "experiments.paper_err_pct",
	"loadgen.lag_max_ms", "loadgen.jobs", "trace.overhead_latency_pct", "trace.overhead_throughput_pct",
}

// withAllLayerMetrics returns m completed with a 0 for every per-layer
// metric the workload did not produce. A name outside perLayerNames is a bug
// in the benchmark.
func withAllLayerMetrics(m map[string]metric) map[string]metric {
	known := map[string]bool{}
	for _, n := range perLayerNames {
		known[n] = true
	}
	for n := range m {
		if !known[n] {
			panic(fmt.Sprintf("e2ebench: per-layer metric %q is not declared", n))
		}
	}
	out := map[string]metric{}
	for _, n := range perLayerNames {
		v, ok := m[n]
		if !ok {
			v = metric{0, unitOf(n)}
		}
		out[n] = v
	}
	return out
}

// unitOf derives a metric's unit from its name suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_mb", "MiB"},
		{"_pct", "%"}, {"_frac", "ratio"}, {"bytes_per_job", "bytes"},
	} {
		if len(name) >= len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

// unitCosts times the public ckks and ring operations one at a time at the
// workload's parameters and top level, with the fleet idle. Each figure is
// the median of repeated single calls.
func (fr *fheRunner) unitCosts() map[string]metric {
	env := fr.env
	params, lvl := env.params, env.spec.levels
	const budget = 60 * time.Millisecond
	encr := ckks.NewEncryptor(params, env.pk, 7)
	vals := jobInput(fr.seed, -2, params.Slots())
	pt, _ := env.enc.EncodeAtLevel(vals, params.DefaultScale(), lvl) // level and length are valid by construction
	ct := encr.Encrypt(pt)
	prod := env.eval.MulPlain(ct, pt)
	wire := ckks.MarshalCiphertext(ct)

	m := map[string]metric{
		"ckks.rotate_us":   {us(timeCalls(budget, 5, 500, func() { env.eval.Rotate(ct, 1) })), "us"},
		"ckks.mulrelin_us": {us(timeCalls(budget, 5, 500, func() { env.eval.MulRelin(ct, ct) })), "us"},
		"ckks.mulplain_us": {us(timeCalls(budget, 5, 500, func() { env.eval.MulPlain(ct, pt) })), "us"},
		"ckks.rescale_us":  {us(timeCalls(budget, 5, 500, func() { env.eval.Rescale(prod) })), "us"},
		"ckks.encode_ms": {ms(timeCalls(budget, 5, 500, func() {
			_, _ = env.enc.EncodeAtLevel(vals, params.DefaultScale(), lvl)
		})), "ms"},
		"ckks.marshal_us": {us(timeCalls(budget, 5, 500, func() { ckks.MarshalCiphertext(ct) })), "us"},
		"ckks.unmarshal_us": {us(timeCalls(budget, 5, 500, func() {
			_, _ = ckks.UnmarshalCiphertext(params, wire) // wire is a valid encoding
		})), "us"},
		"ckks.encrypt_ms":        {ms(timeCalls(budget, 5, 500, func() { encr.Encrypt(pt) })), "ms"},
		"ckks.decrypt_decode_ms": {ms(timeCalls(budget, 5, 500, func() { env.enc.Decode(env.dec.Decrypt(ct)) })), "ms"},
	}

	r := params.RingQP()
	a, b, acc := randomPoly(r, lvl, 1), randomPoly(r, lvl, 2), randomPoly(r, lvl, 3)
	m["ring.ntt_us"] = metric{us(timeCalls(budget, 5, 2000, func() {
		r.NTT(a)
		a.IsNTT = false // the transform is a bijection, so the row stays valid input
	})), "us"}
	m["ring.intt_us"] = metric{us(timeCalls(budget, 5, 2000, func() {
		a.IsNTT = true
		r.INTT(a)
	})), "us"}
	for _, p := range []*ring.Poly{a, b, acc} {
		p.IsNTT = true
	}
	perm := ring.AutomorphismNTTIndex(r.N, ring.GaloisElementForRotation(r.N, 1))
	out := r.NewPoly(lvl)
	m["ring.automorphism_ntt_us"] = metric{us(timeCalls(budget, 5, 2000, func() { r.AutomorphismNTT(a, perm, out) })), "us"}
	m["ring.mulcoeffsadd_us"] = metric{us(timeCalls(budget, 5, 2000, func() { r.MulCoeffsAdd(a, b, acc) })), "us"}

	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("unit costs at logN %d, level %d (median of single calls, fleet idle):\n", params.LogN(), lvl)
	for _, n := range names {
		fmt.Printf("  %-26s %10.3f %s\n", n, m[n].Value, m[n].Unit)
	}
	return m
}

// randomPoly returns a coefficient-domain polynomial at level with uniform
// residues below each modulus.
func randomPoly(r *ring.Ring, level, stream int) *ring.Poly {
	p := r.NewPoly(level)
	rnd := newRand(int64(stream), streamInputs, -3)
	for i, row := range p.Coeffs {
		q := r.Moduli[i]
		for j := range row {
			row[j] = uint64(rnd.Int63()) % q
		}
	}
	return p
}

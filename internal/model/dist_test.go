package model

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/token"
)

// referenceDist is the eager distribution build that lazy model Dists
// replace, kept verbatim (per-call map plus sort.Slice) as the oracle the
// lazy build must match bit for bit. Only the Dist's layout changed: the
// candidates now sit behind Dist.e.
func referenceDist(h uint64, cfg Config) Dist {
	k := cfg.TopK
	d := eagerDist{vocab: cfg.VocabSize, tail: TailMass}
	d.cands = make([]TokenProb, 0, k+1)

	// Geometric decay with a context-dependent ratio in [0.55, 0.95] gives
	// distributions of varying entropy.
	ratio := 0.55 + 0.40*float64(splitmix64(h^1)%1024)/1024.0
	seen := make(map[token.ID]bool, k)
	w := 1.0
	var sum float64
	for i := 0; len(d.cands) < k; i++ {
		id := token.ID(splitmix64(h^uint64(2+i)) % uint64(cfg.VocabSize))
		if token.IsSpecial(id) || seen[id] {
			continue
		}
		seen[id] = true
		d.cands = append(d.cands, TokenProb{Token: id, Prob: w})
		sum += w
		w *= ratio
	}

	// Context-dependent EOS mass makes sampled generations terminate.
	eos := cfg.EOSBias * float64(splitmix64(h^0xe05)%1024) / 1024.0
	scale := (1 - TailMass - eos) / sum
	for i := range d.cands {
		d.cands[i].Prob *= scale
	}
	if eos > 0 {
		d.cands = append(d.cands, TokenProb{Token: token.EOS, Prob: eos})
	}
	sort.Slice(d.cands, func(i, j int) bool {
		if d.cands[i].Prob != d.cands[j].Prob {
			return d.cands[i].Prob > d.cands[j].Prob
		}
		return d.cands[i].Token < d.cands[j].Token
	})
	return Dist{h: h, e: &d}
}

// referenceTemperature is the tempering that Dist.AppendTempered
// replaces, kept verbatim (a second slice plus sort.Slice) and returning
// the tempered candidates.
func referenceTemperature(d Dist, temp float64) []TokenProb {
	if temp == 1 {
		return d.Candidates()
	}
	var out []TokenProb
	if temp <= 0 {
		if d.cfg != nil || len(d.Candidates()) > 0 {
			out = []TokenProb{{Token: d.Greedy(), Prob: 1}}
		}
		return out
	}
	cands := d.Candidates()
	out = make([]TokenProb, len(cands))
	var sum float64
	for i, c := range cands {
		p := math.Pow(c.Prob, 1/temp)
		out[i] = TokenProb{Token: c.Token, Prob: p}
		sum += p
	}
	for i := range out {
		out[i].Prob /= sum
	}
	sort.Slice(out, func(i, j int) bool { return before(out[i], out[j]) })
	return out
}

// checkReference asserts that the lazy model Dist d reads exactly like the
// eager ref: the same candidates, greedy token, and, when spot is set,
// the same ProbOf, SampleAt, Entropy, Mask and Temperature results.
func checkReference(t *testing.T, d, ref Dist, spot bool) {
	t.Helper()
	got, want := d.Candidates(), ref.e.cands
	if len(got) != len(want) {
		t.Fatalf("h=%#x: %d candidates, reference has %d", d.h, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("h=%#x: candidate %d = %v, reference %v", d.h, i, got[i], want[i])
		}
	}
	if g, w := d.Greedy(), want[0].Token; g != w {
		t.Fatalf("h=%#x: Greedy = %d, reference %d", d.h, g, w)
	}
	if !spot {
		return
	}
	probes := []token.ID{token.EOS, token.BOS, want[0].Token, want[len(want)-1].Token,
		token.ID(d.h % uint64(d.VocabSize())), token.ID(d.VocabSize() - 1)}
	for _, tok := range probes {
		if g, w := d.ProbOf(tok), ref.ProbOf(tok); g != w {
			t.Fatalf("h=%#x: ProbOf(%d) = %v, reference %v", d.h, tok, g, w)
		}
	}
	for _, u := range []float64{0, 0.01, 0.3, 0.5, 0.9, 0.979, 0.99, 0.999999} {
		if g, w := d.SampleAt(u), ref.SampleAt(u); g != w {
			t.Fatalf("h=%#x: SampleAt(%v) = %d, reference %d", d.h, u, g, w)
		}
	}
	if g, w := d.Entropy(), ref.Entropy(); g != w {
		t.Fatalf("h=%#x: Entropy = %v, reference %v", d.h, g, w)
	}
	sameCands := func(what string, gc, wc []TokenProb) {
		t.Helper()
		if len(gc) != len(wc) {
			t.Fatalf("h=%#x: %s has %d candidates, reference %d", d.h, what, len(gc), len(wc))
		}
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("h=%#x: %s candidate %d = %v, reference %v", d.h, what, i, gc[i], wc[i])
			}
		}
	}
	sameCands("Mask", d.Mask(probes).Candidates(), ref.Mask(probes).Candidates())
	var buf [3]TokenProb
	for _, temp := range []float64{0, 0.7, 1, 1.5} {
		want := referenceTemperature(ref, temp)
		sameCands("Temperature", d.Temperature(temp).Candidates(), want)
		sameCands("AppendTempered", d.AppendTempered(nil, temp), want)
		got := d.AppendTempered(buf[:1], temp)
		if got[0] != buf[0] {
			t.Fatalf("h=%#x: AppendTempered overwrote dst's prefix", d.h)
		}
		sameCands("AppendTempered onto a prefix", got[1:], want)
	}
}

func TestLazyDistMatchesReference(t *testing.T) {
	target := New(Llama13B())
	// crowded leaves only a few spare token IDs beyond TopK, so draws are
	// often special or repeated, and its EOS mass often ranks first. tied
	// has TopK 1 and EOSBias 0.98, where the EOS mass equals the sole
	// candidate's exactly for one context in 1024, exercising the tie rule.
	crowded := Config{Name: "crowded", Seed: 7, VocabSize: 8 + 4 + 3, TopK: 8, EOSBias: 0.97}
	tied := Config{Name: "tied", Seed: 9, VocabSize: 1 + 4 + 2, TopK: 1, EOSBias: 0.98}
	cases := []struct {
		m              *Model
		eosFirst, ties bool // require the case to reach these paths
	}{
		{m: target},
		{m: New(DraftLlama1B())},
		{m: New(AlignedDraft(target, 0.6))},
		{m: New(crowded), eosFirst: true},
		{m: New(tied), eosFirst: true, ties: true},
	}
	const n = 100_000
	for _, c := range cases {
		t.Run(c.m.Name(), func(t *testing.T) {
			var eosFirst, ties int
			for i := 0; i < n; i++ {
				d := c.m.Next(CtxHash(splitmix64(uint64(i))))
				ref := referenceDist(d.h, *d.cfg)
				checkReference(t, d, ref, i%97 == 0)
				rc := ref.e.cands
				if rc[0].Token == token.EOS {
					eosFirst++
				}
				for j, p := range rc {
					if p.Token == token.EOS && (j > 0 && rc[j-1].Prob == p.Prob ||
						j+1 < len(rc) && rc[j+1].Prob == p.Prob) {
						ties++
					}
				}
			}
			if c.eosFirst && eosFirst == 0 {
				t.Errorf("EOS never ranked first in %d contexts", n)
			}
			if c.ties && ties == 0 {
				t.Errorf("EOS never tied a candidate in %d contexts", n)
			}
		})
	}
}

// FuzzDistReference compares the lazy build with the eager reference over
// arbitrary hashes and configs, clamped to valid ranges: 1 <= TopK <= 256
// (the weights stay normal floats), VocabSize leaves TopK non-special IDs,
// and 0 <= EOSBias <= 1-TailMass keeps every probability non-negative.
func FuzzDistReference(f *testing.F) {
	f.Add(uint64(0), uint16(64), uint32(32768), 0.05)
	f.Add(uint64(0x5f3759df), uint16(8), uint32(3), 0.97)
	f.Add(uint64(1), uint16(1), uint32(2), 0.98)
	f.Fuzz(func(t *testing.T, h uint64, topK uint16, vocab uint32, bias float64) {
		k := 1 + int(topK%256)
		if !(bias >= 0) {
			bias = 0
		}
		bias = math.Min(bias, 1-TailMass)
		cfg := Config{VocabSize: k + 4 + int(vocab%65536), TopK: k, EOSBias: bias}
		d := New(cfg).Next(CtxHash(h))
		checkReference(t, d, referenceDist(d.h, cfg), true)
	})
}

func TestLazyDistAllocations(t *testing.T) {
	m := testModel()
	var h CtxHash
	var sink Dist
	var tok token.ID
	var cands []TokenProb
	cases := []struct {
		name string
		want float64
		f    func()
	}{
		{"Next", 0, func() { h++; sink = m.Next(h) }},
		{"Next.Greedy", 0, func() { h++; tok = m.Next(h).Greedy() }},
		{"Next.Candidates", 1, func() { h++; cands = m.Next(h).Candidates() }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(1000, c.f); got != c.want {
			t.Errorf("%s: %v allocations per run, want %v", c.name, got, c.want)
		}
	}
	_, _, _ = sink, tok, cands
}

// TestDistSize pins Dist at three words: a pred returns one Dist per
// submitted token, so a prefill's slice grows with its size.
func TestDistSize(t *testing.T) {
	if got := unsafe.Sizeof(Dist{}); got != 24 {
		t.Errorf("Dist is %d bytes, want 24", got)
	}
}

func BenchmarkNextGreedy(b *testing.B) {
	m := testModel()
	b.ReportAllocs()
	var tok token.ID
	for i := 0; i < b.N; i++ {
		tok ^= m.Next(CtxHash(i)).Greedy()
	}
	_ = tok
}

func BenchmarkNextCandidates(b *testing.B) {
	m := testModel()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(m.Next(CtxHash(i)).Candidates())
	}
	_ = n
}

package lip

import (
	"math"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/token"
)

// referenceSample is Sampler.Sample as it was before sampling tempered
// into a stack buffer, kept verbatim as the oracle the allocation-free
// path must match token for token. Its one change: the tempered
// candidates come from referenceTemperature, the old Dist.Temperature
// body, so the oracle does not run the code under test.
func referenceSample(s *Sampler, d model.Dist) token.ID {
	if s.Temperature <= 0 {
		return d.Greedy()
	}
	cands := referenceTemperature(d, s.Temperature)
	if len(cands) == 0 {
		return token.EOS
	}
	if s.TopK > 0 && s.TopK < len(cands) {
		cands = cands[:s.TopK]
	}
	if s.TopP > 0 && s.TopP < 1 {
		var acc float64
		cut := len(cands)
		for i, c := range cands {
			acc += c.Prob
			if acc >= s.TopP {
				cut = i + 1
				break
			}
		}
		cands = cands[:cut]
	}
	var total float64
	for _, c := range cands {
		total += c.Prob
	}
	u := s.next() * total
	var acc float64
	for _, c := range cands {
		acc += c.Prob
		if u < acc {
			return c.Token
		}
	}
	return cands[len(cands)-1].Token
}

// referenceTemperature is the old Dist.Temperature for temp > 0 (a second
// slice plus sort.Slice), returning the tempered candidates.
func referenceTemperature(d model.Dist, temp float64) []model.TokenProb {
	if temp == 1 {
		return d.Candidates()
	}
	cands := d.Candidates()
	out := make([]model.TokenProb, len(cands))
	var sum float64
	for i, c := range cands {
		p := math.Pow(c.Prob, 1/temp)
		out[i] = model.TokenProb{Token: c.Token, Prob: p}
		sum += p
	}
	for i := range out {
		out[i].Prob /= sum
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Token < out[j].Token
	})
	return out
}

// sampleInputs returns the Dists a sampler is checked on for one context:
// the model's lazy Dist and two eager ones, rebuilt by NewDist and
// restricted by Mask to every other candidate plus two tail tokens.
func sampleInputs(m *model.Model, h model.CtxHash) []model.Dist {
	d := m.Next(h)
	cands := d.Candidates()
	allowed := []token.ID{token.ID(uint64(h) % uint64(d.VocabSize())), token.ID(d.VocabSize() - 1)}
	for i := 0; i < len(cands); i += 2 {
		allowed = append(allowed, cands[i].Token)
	}
	return []model.Dist{d, model.NewDist(d.VocabSize(), cands), d.Mask(allowed)}
}

// checkSample draws one token from d with s and with a copy of ref, and
// fails unless the tokens and the samplers' states agree.
func checkSample(t *testing.T, s, ref *Sampler, d model.Dist) {
	t.Helper()
	got, want := s.Sample(d), referenceSample(ref, d)
	if got != want || *s != *ref {
		t.Fatalf("%+v: Sample = %d (state %+v), reference %d (state %+v)", *ref, got, *s, want, *ref)
	}
}

func TestSampleMatchesReference(t *testing.T) {
	target := model.New(model.Llama13B())
	// The crowded and tied configs of internal/model's reference test:
	// frequent special or repeated draws, EOS often first, and EOS tying
	// the sole candidate.
	crowded := model.Config{Name: "crowded", Seed: 7, VocabSize: 8 + 4 + 3, TopK: 8, EOSBias: 0.97}
	tied := model.Config{Name: "tied", Seed: 9, VocabSize: 1 + 4 + 2, TopK: 1, EOSBias: 0.98}
	models := []*model.Model{
		target,
		model.New(model.DraftLlama1B()),
		model.New(model.AlignedDraft(target, 0.6)),
		model.New(crowded),
		model.New(tied),
	}
	var samplers [][2]*Sampler
	for _, temp := range []float64{0.3, 0.8, 1, 1.7} {
		for _, k := range []int{0, 5} {
			for _, p := range []float64{0, 0.9} {
				s := Sampler{Temperature: temp, TopK: k, TopP: p, Seed: uint64(len(samplers))}
				ref := s
				samplers = append(samplers, [2]*Sampler{&s, &ref})
			}
		}
	}
	const n = 500
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for i := 0; i < n; i++ {
				for _, d := range sampleInputs(m, model.CtxHash(0).Extend(token.ID(i), i)) {
					for _, p := range samplers {
						checkSample(t, p[0], p[1], d)
					}
				}
			}
		})
	}
}

// FuzzSampleReference compares Sample with the reference over arbitrary
// hashes, sampler settings with a temperature in (0, 4], and configs
// clamped as in internal/model's FuzzDistReference. A TopK above 128
// overflows Sample's stack buffer, which the comparison covers too.
func FuzzSampleReference(f *testing.F) {
	f.Add(uint64(0), 0.3, uint8(0), 0.0, uint64(1), uint16(64), uint32(32768), 0.05)
	f.Add(uint64(0x5f3759df), 1.7, uint8(5), 0.9, uint64(2), uint16(8), uint32(3), 0.97)
	f.Add(uint64(1), 1e-300, uint8(1), 0.5, uint64(3), uint16(1), uint32(2), 0.98)
	f.Add(uint64(2), 0.8, uint8(200), 0.99, uint64(4), uint16(255), uint32(70000), 0.5)
	f.Fuzz(func(t *testing.T, h uint64, temp float64, topK uint8, topP float64, seed uint64,
		cfgTopK uint16, vocab uint32, bias float64) {
		if math.IsNaN(temp) || math.IsInf(temp, 0) {
			temp = 1
		}
		if temp = math.Abs(math.Mod(temp, 4)); temp == 0 {
			temp = 4
		}
		if !(topP >= 0) {
			topP = 0
		}
		k := 1 + int(cfgTopK%256)
		if !(bias >= 0) {
			bias = 0
		}
		bias = math.Min(bias, 1-model.TailMass)
		m := model.New(model.Config{VocabSize: k + 4 + int(vocab%65536), TopK: k, EOSBias: bias})
		s := Sampler{Temperature: temp, TopK: int(topK), TopP: math.Min(topP, 1), Seed: seed}
		ref := s
		for _, d := range sampleInputs(m, model.CtxHash(h)) {
			for i := 0; i < 4; i++ {
				checkSample(t, &s, &ref, d)
			}
		}
	})
}

// TestSampleAllocations pins tempered sampling on the stack: the
// candidates are built and tempered in Sample's local buffer.
func TestSampleAllocations(t *testing.T) {
	m := model.New(model.Llama13B())
	s := &Sampler{Temperature: 0.3, Seed: 1}
	var h model.CtxHash
	var tok token.ID
	got := testing.AllocsPerRun(1000, func() {
		h++
		tok ^= s.Sample(m.Next(h))
	})
	if got != 0 {
		t.Errorf("Sample at temperature 0.3: %v allocations per run, want 0", got)
	}
	_ = tok
}

func BenchmarkSampleTemperature(b *testing.B) {
	m := model.New(model.Llama13B())
	s := &Sampler{Temperature: 0.3, Seed: 1}
	b.ReportAllocs()
	var tok token.ID
	for i := 0; i < b.N; i++ {
		tok ^= s.Sample(m.Next(model.CtxHash(i)))
	}
	_ = tok
}

package lip

import (
	"math"

	"repro/internal/model"
	"repro/internal/token"
)

// Sampler draws tokens from next-token distributions. The zero value is a
// greedy sampler. Sampling is deterministic: the sequence of draws is a
// pure function of Seed, so whole programs replay bit-identically.
type Sampler struct {
	// Temperature flattens (>1) or sharpens (<1) the distribution;
	// 0 means greedy.
	Temperature float64
	// TopK keeps only the k most probable candidates (0 = all).
	TopK int
	// TopP keeps the smallest candidate set with cumulative probability
	// >= TopP (0 or 1 = all). Applied after TopK.
	TopP float64
	// Seed selects the deterministic random stream.
	Seed uint64

	draws uint64
}

// Greedy returns the most probable token of d.
func Greedy(d model.Dist) token.ID { return d.Greedy() }

// next returns the sampler's next uniform in [0,1).
func (s *Sampler) next() float64 {
	s.draws++
	x := s.Seed + s.draws*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Sample draws one token from d under the sampler's settings.
func (s *Sampler) Sample(d model.Dist) token.ID {
	if s.Temperature <= 0 {
		return d.Greedy()
	}
	// Temper into a stack buffer that holds TopK+EOS candidates for any
	// TopK up to 128; a larger TopK spills to the heap. The buffer is
	// local, not a Sampler field, because Samplers are copied by value.
	var buf [129]model.TokenProb
	cands := d.AppendTempered(buf[:0], s.Temperature)
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

// SuppressEOS is a GenOptions.Transform that removes the end-of-sequence
// token from the distribution — the one-line "policy" a program installs
// when it wants unbounded generation (e.g. streaming with context
// pruning). Distributions without EOS pass through unchanged.
func SuppressEOS(d model.Dist, _ token.ID) model.Dist {
	cands := d.Candidates()
	hasEOS := false
	for _, c := range cands {
		if c.Token == token.EOS {
			hasEOS = true
			break
		}
	}
	if !hasEOS {
		return d
	}
	kept := make([]model.TokenProb, 0, len(cands)-1)
	for _, c := range cands {
		if c.Token != token.EOS {
			kept = append(kept, c)
		}
	}
	return model.NewDist(d.VocabSize(), kept)
}

// LogProb returns the natural-log probability d assigns to tok, flooring
// at a small epsilon so scores stay finite.
func LogProb(d model.Dist, tok token.ID) float64 {
	p := d.ProbOf(tok)
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

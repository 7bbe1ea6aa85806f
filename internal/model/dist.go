package model

import (
	"math"
	"slices"

	"repro/internal/token"
)

// TokenProb pairs a token with its probability.
type TokenProb struct {
	Token token.ID
	Prob  float64
}

// Dist is a next-token distribution. As the paper notes (§2.3), a full
// distribution over a 100K vocabulary is ~200 KB; like real serving stacks,
// the simulated model materializes only the top-K candidates and exposes a
// queryable tail approximation for everything else. Probabilities over the
// candidates sum to 1-TailMass.
//
// A Dist returned by Model.Next goes further and materializes nothing: it
// carries the context hash and the model's Config, and each method that
// reads candidates builds them when called. A pred returns one Dist per
// submitted token, and most of them are never read. Greedy is O(k) and
// allocates nothing, and AppendTempered builds and tempers the candidates
// into a caller's buffer, so a sampler needs no heap at all. A Dist is
// three words (24 bytes): a pred's per-token slice stays small. A Dist is
// immutable once made, so it can be shared freely. NewDist and Mask
// return Dists with built candidates, as does Temperature for any temp
// other than 1; those live behind a pointer.
type Dist struct {
	h   uint64
	cfg *Config    // non-nil: candidates are built from h on read
	e   *eagerDist // non-nil: built candidates (NewDist, Mask, Temperature)
}

// eagerDist is the part of a Dist that NewDist, Mask and Temperature build.
type eagerDist struct {
	vocab int
	cands []TokenProb // sorted by descending probability
	tail  float64     // mass reserved for non-candidate tokens
}

// TailMass is the probability mass a Dist reserves for tokens outside its
// explicit candidate set.
const TailMass = 0.02

// lazyDist returns the model distribution for the seeded context hash h.
func lazyDist(h uint64, cfg *Config) Dist {
	return Dist{h: h, cfg: cfg}
}

// shape returns a model Dist's geometric decay ratio, its EOS mass, and the
// scale that maps the TopK geometric weights onto 1-TailMass-eos. The
// ratio is context-dependent in [0.55, 0.95], which gives distributions of
// varying entropy; the context-dependent EOS mass makes sampled
// generations terminate.
func (d Dist) shape() (ratio, eos, scale float64) {
	ratio = 0.55 + 0.40*float64(splitmix64(d.h^1)%1024)/1024.0
	w, sum := 1.0, 0.0
	for i := 0; i < d.cfg.TopK; i++ {
		sum += w
		w *= ratio
	}
	eos = d.cfg.EOSBias * float64(splitmix64(d.h^0xe05)%1024) / 1024.0
	return ratio, eos, (1 - TailMass - eos) / sum
}

// drawID returns a model Dist's i-th candidate draw, which may be special
// or repeat an earlier draw.
func (d Dist) drawID(i int) token.ID {
	return token.ID(splitmix64(d.h^uint64(2+i)) % uint64(d.cfg.VocabSize))
}

// candidates returns the candidate list, building it for a model Dist.
func (d Dist) candidates() []TokenProb {
	if d.cfg != nil {
		return d.appendCandidates(make([]TokenProb, 0, d.cfg.TopK+1))
	}
	if d.e != nil {
		return d.e.cands
	}
	return nil
}

// appendCandidates appends d's candidate list to dst. A model Dist's
// build takes the first TopK distinct non-special draws with geometrically
// decaying weights. Those strictly decrease (ratio < 1, and with ratio >=
// 0.55 they stay normal floats for a TopK of up to about a thousand), so
// the list is sorted as it is made and only the EOS entry needs placing.
// Duplicate draws are caught by a 256-bit filter over the token's low
// bits, with a linear scan only when the filter's bit is already set.
func (d Dist) appendCandidates(dst []TokenProb) []TokenProb {
	if d.cfg == nil {
		if d.e != nil {
			dst = append(dst, d.e.cands...)
		}
		return dst
	}
	ratio, eos, scale := d.shape()
	k := d.cfg.TopK
	start := len(dst)
	dst = slices.Grow(dst, k+1)
	var seen [4]uint64
	w := 1.0
	for i := 0; len(dst)-start < k; i++ {
		id := d.drawID(i)
		if token.IsSpecial(id) {
			continue
		}
		word, bit := &seen[uint32(id)>>6&3], uint64(1)<<(uint32(id)&63)
		if *word&bit != 0 && contains(dst[start:], id) {
			continue
		}
		*word |= bit
		dst = append(dst, TokenProb{Token: id, Prob: w * scale})
		w *= ratio
	}
	if eos > 0 {
		e := TokenProb{Token: token.EOS, Prob: eos}
		i := start
		for i < len(dst) && before(dst[i], e) {
			i++
		}
		dst = slices.Insert(dst, i, e)
	}
	return dst
}

// contains reports whether id is already among cands.
func contains(cands []TokenProb, id token.ID) bool {
	for _, c := range cands {
		if c.Token == id {
			return true
		}
	}
	return false
}

// before is the candidate order: descending probability, ties broken by
// lower token ID.
func before(a, b TokenProb) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Token < b.Token
}

// NewDist builds a distribution from explicit candidates, for user
// policies (watermarks, cascades) that rewrite model output. Candidate
// probabilities are rescaled to sum to 1-TailMass, preserving the original
// contract that non-candidate tokens keep a small queryable tail, so a
// rewritten distribution still composes with Mask-based constraints. The
// candidates must be sorted by descending probability.
func NewDist(vocabSize int, cands []TokenProb) Dist {
	e := &eagerDist{vocab: vocabSize, tail: TailMass}
	d := Dist{e: e}
	var sum float64
	for _, c := range cands {
		sum += c.Prob
		d.h = splitmix64(d.h ^ uint64(uint32(c.Token)))
	}
	if sum <= 0 {
		return d
	}
	scale := (1 - TailMass) / sum
	e.cands = make([]TokenProb, len(cands))
	for i, c := range cands {
		e.cands[i] = TokenProb{Token: c.Token, Prob: c.Prob * scale}
	}
	return d
}

// Candidates returns the explicit candidates in descending probability
// order. Callers must not mutate the slice: it is shared by every copy of
// a Dist built by NewDist, Mask or Temperature. A model Dist builds a new
// slice on each call.
func (d Dist) Candidates() []TokenProb { return d.candidates() }

// Greedy returns the most probable token.
func (d Dist) Greedy() token.ID {
	if d.cfg == nil {
		cands := d.candidates()
		if len(cands) == 0 {
			return token.EOS
		}
		return cands[0].Token
	}
	// The first non-special draw has weight 1, so its probability is scale.
	_, eos, scale := d.shape()
	i := 0
	for token.IsSpecial(d.drawID(i)) {
		i++
	}
	top := TokenProb{Token: d.drawID(i), Prob: scale}
	if eos > 0 && before(TokenProb{Token: token.EOS, Prob: eos}, top) {
		return token.EOS
	}
	return top.Token
}

// VocabSize returns the vocabulary bound of the emitting model.
func (d Dist) VocabSize() int {
	if d.cfg != nil {
		return d.cfg.VocabSize
	}
	if d.e != nil {
		return d.e.vocab
	}
	return 0
}

// tail returns the mass d reserves for non-candidate tokens.
func (d Dist) tail() float64 {
	if d.cfg != nil {
		return TailMass
	}
	if d.e != nil {
		return d.e.tail
	}
	return 0
}

// ProbOf returns the probability of an arbitrary token: the exact candidate
// probability when tok is a candidate, otherwise a deterministic share of
// the tail mass.
func (d Dist) ProbOf(tok token.ID) float64 { return d.probOf(d.candidates(), tok) }

// probOf is ProbOf over d's already built candidates.
func (d Dist) probOf(cands []TokenProb, tok token.ID) float64 {
	for _, c := range cands {
		if c.Token == tok {
			return c.Prob
		}
	}
	vocab := d.VocabSize()
	if vocab <= len(cands) {
		return 0
	}
	// Split tail mass unevenly but deterministically among non-candidates.
	u := float64(splitmix64(d.h^uint64(tok)^0x7a11)%1024) / 1024.0
	mean := d.tail() / float64(vocab-len(cands))
	return mean * (0.5 + u)
}

// Entropy returns the Shannon entropy (nats) over the candidate set,
// ignoring the tail.
func (d Dist) Entropy() float64 {
	var e float64
	for _, c := range d.candidates() {
		if c.Prob > 0 {
			e -= c.Prob * math.Log(c.Prob)
		}
	}
	return e
}

// SampleAt inverts the candidate CDF at u in [0,1). Tail mass maps to the
// least probable candidate, so SampleAt always returns a candidate.
func (d Dist) SampleAt(u float64) token.ID {
	cands := d.candidates()
	if len(cands) == 0 {
		return token.EOS
	}
	var acc float64
	for _, c := range cands {
		acc += c.Prob
		if u < acc {
			return c.Token
		}
	}
	return cands[len(cands)-1].Token
}

// Mask restricts the distribution to the allowed token set and
// renormalizes, the primitive constrained decoding builds on. Allowed
// tokens outside the candidate set enter with their tail probability, so a
// grammar can always make progress even when the model's top-K disagrees
// with it. Mask returns the zero Dist if allowed is empty.
func (d Dist) Mask(allowed []token.ID) Dist {
	cands := d.candidates()
	out := &eagerDist{vocab: d.VocabSize()}
	var sum float64
	for _, tok := range allowed {
		p := d.probOf(cands, tok)
		if p <= 0 {
			continue
		}
		out.cands = append(out.cands, TokenProb{Token: tok, Prob: p})
		sum += p
	}
	if sum != 0 {
		for i := range out.cands {
			out.cands[i].Prob /= sum
		}
		sortCands(out.cands)
	}
	return Dist{h: d.h, e: out}
}

// Temperature returns a copy of the distribution with probabilities
// raised to 1/temp and renormalized. temp <= 0 returns a one-hot greedy
// distribution; temp == 1 returns d unchanged.
func (d Dist) Temperature(temp float64) Dist {
	if temp == 1 {
		return d
	}
	return Dist{h: d.h, e: &eagerDist{vocab: d.VocabSize(), cands: d.AppendTempered(nil, temp)}}
}

// AppendTempered appends d.Temperature(temp).Candidates() to dst without
// building the tempered Dist: the candidates are built in place in dst
// and tempered there, so a sampler that passes a large enough buffer
// allocates nothing.
func (d Dist) AppendTempered(dst []TokenProb, temp float64) []TokenProb {
	if temp <= 0 {
		if d.cfg == nil && len(d.candidates()) == 0 {
			return dst
		}
		return append(dst, TokenProb{Token: d.Greedy(), Prob: 1})
	}
	start := len(dst)
	dst = d.appendCandidates(dst)
	if temp == 1 {
		return dst
	}
	cands := dst[start:]
	var sum float64
	for i, c := range cands {
		p := math.Pow(c.Prob, 1/temp)
		cands[i].Prob = p
		sum += p
	}
	for i := range cands {
		cands[i].Prob /= sum
	}
	sortCands(cands)
	return dst
}

// sortCands sorts cands into the before order. before is a strict total
// order over distinct tokens, so the result does not depend on the sort.
func sortCands(cands []TokenProb) {
	slices.SortFunc(cands, func(a, b TokenProb) int {
		if before(a, b) {
			return -1
		}
		if before(b, a) {
			return 1
		}
		return 0
	})
}

// ApproxBytes returns the wire size of the full distribution this Dist
// stands for (vocab × fp16), the figure the paper cites when arguing the
// sampling loop cannot live client-side.
func (d Dist) ApproxBytes() int { return d.VocabSize() * 2 }

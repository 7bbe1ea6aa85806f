package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/lipscript"
	"repro/internal/workload"
)

// request is one arrival of an open-loop schedule: a lipscript body
// submitted as tenant user at virtual offset due from the rung's start.
type request struct {
	due   time.Duration
	user  string
	body  []byte
	batch bool // the batch lane; excluded from the TTFT and SLO figures
}

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	name string
	why  string
	// nominal is the 1x offered rate in requests per second.
	nominal float64
	// n1 is the request count of the 1x rung, sized so the p99 of its
	// non-batch requests has at least ten samples beyond it; nRung is the
	// count of every other rung, which only decides pass or fail.
	n1, nRung int
	// sloTTFT and sloNorm are the SLO limits: a non-batch request meets
	// the SLO when it succeeds, its first token arrives within sloTTFT of
	// its due time, and its completion time per output token is at most
	// sloNorm.
	sloTTFT, sloNorm time.Duration
	// greedy workloads decode greedily, so their outputs can be checked
	// against a replay on a fresh kernel.
	greedy bool
	// shapes returns the function that draws request i of one schedule
	// (its due time is set by the schedule).
	shapes func(rng *rand.Rand) func(i int) request
	// warm builds the workload's shared KV files before arrivals start.
	warm [][]byte
}

// ladder is the fixed set of offered rates, as multiples of nominal.
var ladder = []float64{0.5, 0.75, 1, 1.25, 1.5}

// sloAttain is the share of non-batch requests a rung must keep within
// the SLO to pass.
const sloAttain = 0.99

var workloads = map[string]*workloadSpec{
	"rag-fork": {
		name:    "rag-fork",
		why:     "Pareto-skewed topic files forked per question: KVFS fork/COW, cache-affinity dispatch and migration, decode with spec verify; no KV pressure",
		nominal: 11,
		n1:      1000,
		nRung:   600,
		sloTTFT: 2000 * time.Millisecond,
		sloNorm: 100 * time.Millisecond,
		greedy:  true,
		shapes:  ragShapes,
		warm:    ragWarm(),
	},
	"prompt-lanes": {
		name:    "prompt-lanes",
		why:     "unshared 256-4096-token prompts plus a batch tenant: chunked prefill, lane ordering and queueing; nothing shared, short decode",
		nominal: 2.5,
		n1:      1100,
		nRung:   250,
		sloTTFT: 8000 * time.Millisecond,
		sloNorm: 300 * time.Millisecond,
		greedy:  true,
		shapes:  laneShapes,
		warm:    laneWarm(),
	},
	"agent-tools": {
		name:    "agent-tools",
		why:     "multi-round agents: one pred syscall per sampled token, 0.2-2 s tool waits, kvd offload and PCIe restore of cold toolset specs",
		nominal: 3,
		n1:      1000,
		nRung:   400,
		sloTTFT: 2000 * time.Millisecond,
		sloNorm: 250 * time.Millisecond,
		shapes:  agentShapes,
		warm:    agentWarm(),
	},
}

// workloadNames lists the workloads in a fixed order.
func workloadNames() []string { return []string{"rag-fork", "prompt-lanes", "agent-tools"} }

// schedule draws the workload's requests for one seed: Poisson arrivals
// at one request per second, scaled to each rung's rate by rungRequests.
// The arrivals are a Poisson process conditioned on its count: n1 times
// uniform over n1 seconds, sorted. Every seed then offers exactly the
// nominal rate, with Poisson burstiness within the window.
func (w *workloadSpec) schedule(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	shape := w.shapes(rng)
	due := make([]float64, w.n1)
	for i := range due {
		due[i] = rng.Float64() * float64(w.n1)
	}
	sort.Float64s(due)
	out := make([]request, w.n1)
	for i := range out {
		out[i] = shape(i)
		out[i].due = time.Duration(due[i] * float64(time.Second))
	}
	return out
}

// rungRequests returns the first n requests of sched with due times
// rescaled to rate requests per second.
func rungRequests(sched []request, n int, rate float64) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = sched[i]
		out[i].due = time.Duration(float64(sched[i].due) / rate)
	}
	return out
}

var fillerWords = strings.Fields(`
system design memory cache latency throughput batch schedule token model
kernel thread process file page table index query retrieval document
context attention transformer gradient vector matrix tensor compute
network protocol request response server client program interface
`)

// writeWords appends n filler words, each followed by a space: 2n tokens
// under the word/space tokenizer.
func writeWords(b *strings.Builder, rng *rand.Rand, n int) {
	for w := 0; w < n; w++ {
		b.WriteString(fillerWords[rng.Intn(len(fillerWords))])
		b.WriteByte(' ')
	}
}

// deck deals the integers lo..hi in shuffled order, reshuffling a full
// set whenever it runs out. Shapes drawn from decks hold each value
// equally often, so every seed draws the same population of request
// shapes in a different order: the latency tails, which a few requests
// set, stay comparable across seeds.
type deck struct {
	rng    *rand.Rand
	lo, hi int
	cards  []int
}

func newDeck(rng *rand.Rand, lo, hi int) deck { return deck{rng: rng, lo: lo, hi: hi} }

func (d *deck) draw() int {
	if len(d.cards) == 0 {
		for v := d.lo; v <= d.hi; v++ {
			d.cards = append(d.cards, v)
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	v := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return v
}

// text returns about tokens tokens that begin with a header naming
// request i in filler words, so no two requests of a run share a prefix
// and consecutive requests start with different tokens. It uses only
// lexicon words (see newDeployment).
func text(rng *rand.Rand, i, tokens int, kind string) string {
	var b strings.Builder
	for d, n := 0, len(fillerWords); d < 3; d, i = d+1, i/n {
		b.WriteString(fillerWords[i%n])
		b.WriteByte(' ')
	}
	b.WriteString(kind)
	b.WriteString(": ")
	writeWords(&b, rng, tokens/2-6)
	return b.String()
}

// lexicon is every token the workloads send: the filler words, the
// header and document words, punctuation, and the topic and toolset
// numbers.
func lexicon() string {
	words := append([]string{"Question", "Prompt", "Task", "Observation", "result", "Tool",
		"specification", "Document", ":", "."}, fillerWords...)
	for n := 0; n < max(ragTopics, agentToolsets); n++ {
		words = append(words, fmt.Sprint(n))
	}
	return strings.Join(words, " ")
}

func mustJSON(s lipscript.Script) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	if _, err := lipscript.Parse(b); err != nil {
		panic(err)
	}
	return b
}

// rag-fork: about 16 topics of about 1.4k tokens, all built at warm-up
// and fitting in GPU KV together.
const (
	ragTopics      = 16
	ragTopicTokens = 1400
	ragPareto      = 1.0
)

var ragCorpus = workload.NewCorpus(ragTopics, ragTopicTokens)

// topicDoc is topic t's document. Each starts with its own word: the
// kernel keys a prefix family on its first token, so documents with a
// common first token would all share one home replica (see README.md).
func topicDoc(t int) string { return fillerWords[t] + " " + ragCorpus.Doc(t) }

func topicPath(t int) string { return fmt.Sprintf("/rag/topic-%02d", t) }

// ragBuild opens (or creates) topic t's file and builds it once under
// the advisory lock.
func ragBuild(t int) []lipscript.Stmt {
	return []lipscript.Stmt{
		{Op: lipscript.OpCreate, S: "topic", Path: topicPath(t)},
		{Op: lipscript.OpLock, S: "topic"},
		{Op: lipscript.OpPrefillIfEmpty, S: "topic", Text: topicDoc(t)},
		{Op: lipscript.OpUnlock, S: "topic"},
	}
}

func ragWarm() [][]byte {
	out := make([][]byte, ragTopics)
	for t := range out {
		out[t] = mustJSON(lipscript.Script{Steps: ragBuild(t)})
	}
	return out
}

var ragTopicDist = workload.NewPareto(ragTopics, ragPareto)

func ragShapes(rng *rand.Rand) func(int) request {
	question, answer := newDeck(rng, 16, 64), newDeck(rng, 128, 256)
	return func(i int) request {
		t := ragTopicDist.Sample(rng)
		steps := append(ragBuild(t),
			lipscript.Stmt{Op: lipscript.OpFork, S: "q", From: "topic"},
			lipscript.Stmt{Op: lipscript.OpPrefill, S: "q", Text: text(rng, i, question.draw(), "Question")},
			lipscript.Stmt{Op: lipscript.OpGenerate, S: "q", MaxTokens: answer.draw()},
			lipscript.Stmt{Op: lipscript.OpRemove, S: "q"},
		)
		return request{user: fmt.Sprintf("rag-%02d", rng.Intn(64)), body: mustJSON(lipscript.Script{Steps: steps})}
	}
}

// prompt-lanes: interactive tenants with unique prompts, plus one batch
// tenant sending long documents: laneBatch of every laneKinds arrivals.
const laneKinds, laneBatch = 25, 2

func laneShapes(rng *rand.Rand) func(int) request {
	// A prompt's size stratum and its answer length are dealt as one
	// card, so long prompts meet short answers, which set the per-token
	// tail, equally often for every seed.
	const promptStrata, answers = 16, 49 // answers of 16-64 tokens
	kind, shape, doc := newDeck(rng, 1, laneKinds), newDeck(rng, 0, promptStrata*answers-1), newDeck(rng, 0, 15)
	return func(i int) request {
		if kind.draw() <= laneBatch {
			// 4-8k-token documents, uniform in 16 strata.
			size := 4096 + int((float64(doc.draw())+rng.Float64())*256)
			return laneRequest(rng, i, "batch", "batch-tenant", size, 128)
		}
		// 256-4096-token prompts, log-uniform within 16 strata: most
		// prompts are short, a few long.
		card := shape.draw()
		size := int(256 * math.Pow(16, (float64(card/answers)+rng.Float64())/promptStrata))
		return laneRequest(rng, i, "interactive", fmt.Sprintf("chat-%02d", rng.Intn(48)), size, 16+card%answers)
	}
}

// laneWarm runs one interactive and one batch request before arrivals
// start, so lazily built state is in place before timing.
func laneWarm() [][]byte {
	rng := rand.New(rand.NewSource(-1))
	return [][]byte{
		laneRequest(rng, 0, "interactive", "chat-00", 1024, 32).body,
		laneRequest(rng, 1, "batch", "batch-tenant", 4096, 128).body,
	}
}

func laneRequest(rng *rand.Rand, i int, prio, user string, prompt, answer int) request {
	steps := []lipscript.Stmt{
		{Op: lipscript.OpAnon, S: "p"},
		{Op: lipscript.OpPrefill, S: "p", Text: text(rng, i, prompt, "Prompt")},
		{Op: lipscript.OpGenerate, S: "p", MaxTokens: answer},
		{Op: lipscript.OpRemove, S: "p"},
	}
	return request{user: user, batch: prio == "batch", body: mustJSON(lipscript.Script{Priority: prio, Steps: steps})}
}

// agent-tools: each agent forks the shared tool-spec file of its toolset
// and runs 2-4 rounds of sampled generation, a tool call and an
// observation prefill. Toolset specs start with their own numbers, so
// they are separate prefix families spread over the replicas; their
// Pareto-skewed popularity leaves cold specs for kvd to offload once the
// live agents push GPU KV past the high-water mark.
const (
	agentToolsets = 56
	agentPareto   = 0.7
)

var toolsetDist = workload.NewPareto(agentToolsets, agentPareto)

func specPath(s int) string { return fmt.Sprintf("/agent/toolset-%d", s) }

func agentWarm() [][]byte {
	out := make([][]byte, agentToolsets)
	for s := range out {
		var b strings.Builder
		fmt.Fprintf(&b, "%d Tool specification: ", s)
		writeWords(&b, rand.New(rand.NewSource(int64(s))), 500)
		out[s] = mustJSON(lipscript.Script{Steps: []lipscript.Stmt{
			{Op: lipscript.OpCreate, S: "spec", Path: specPath(s)},
			{Op: lipscript.OpPrefillIfEmpty, S: "spec", Text: b.String()},
		}})
	}
	return out
}

func agentShapes(rng *rand.Rand) func(int) request {
	task, rounds, answer, tool := newDeck(rng, 128, 512), newDeck(rng, 2, 4), newDeck(rng, 32, 64), newDeck(rng, 0, numTools-1)
	return func(i int) request {
		steps := []lipscript.Stmt{
			{Op: lipscript.OpOpen, S: "spec", Path: specPath(toolsetDist.Sample(rng))},
			{Op: lipscript.OpFork, S: "a", From: "spec"},
			{Op: lipscript.OpPrefill, S: "a", Text: text(rng, i, task.draw(), "Task")},
		}
		n := rounds.draw()
		for r := 0; r < n; r++ {
			steps = append(steps,
				lipscript.Stmt{Op: lipscript.OpGenerate, S: "a", MaxTokens: answer.draw(),
					Temperature: 0.3, Seed: uint64(rng.Int63())},
				lipscript.Stmt{Op: lipscript.OpCall, Tool: toolName(tool.draw()),
					Text: fmt.Sprintf("agent %d round %d", i, r), Out: "obs"},
				lipscript.Stmt{Op: lipscript.OpPrefill, S: "a", Text: "Observation: ${obs}"},
			)
		}
		steps = append(steps, lipscript.Stmt{Op: lipscript.OpRemove, S: "a"})
		return request{user: fmt.Sprintf("agent-%02d", rng.Intn(64)), body: mustJSON(lipscript.Script{Steps: steps})}
	}
}

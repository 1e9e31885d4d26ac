package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"elmore/internal/rctree"
)

// rng is a splitmix64 generator. The benchmark carries its own so that
// a seed names the same corpus forever, whatever the standard library
// or the repository's topology generators do.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// logUniform draws from [lo, hi] uniformly in log space, rounded to the
// 12 significant digits the deck carries, so the oracle tree built from
// these values is the tree the program parses.
func (r *rng) logUniform(lo, hi float64) float64 {
	v := math.Exp(math.Log(lo) + r.float()*(math.Log(hi)-math.Log(lo)))
	v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 12, 64), 64)
	return v
}

// net is one generated RC tree: node i is named n<i+1>, and parent -1
// means the node hangs off the driven input node.
type net struct {
	name   string
	parent []int32
	r, c   []float64
}

func (nt *net) n() int { return len(nt.parent) }

func nodeName(i int) string { return "n" + strconv.Itoa(i+1) }

// randomNet draws an n-node tree: each new node extends the previous
// one with probability chaininess, else attaches to a uniformly chosen
// earlier node. Values are log-uniform over 10–1000 Ω and 1 fF–1 pF.
func randomNet(r *rng, name string, n int, chaininess float64) *net {
	nt := &net{name: name, parent: make([]int32, n), r: make([]float64, n), c: make([]float64, n)}
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			nt.parent[i] = -1
		case r.float() < chaininess:
			nt.parent[i] = int32(i - 1)
		default:
			nt.parent[i] = int32(r.intn(i))
		}
		nt.r[i] = r.logUniform(10, 1000)
		nt.c[i] = r.logUniform(1e-15, 1e-12)
	}
	return nt
}

// deck renders the net as a SPICE deck the netlist package reads.
func (nt *net) deck() []byte {
	b := make([]byte, 0, 64*nt.n()+64)
	b = append(b, "* perfbench net "...)
	b = append(b, nt.name...)
	b = append(b, "\nVin in 0 1\n"...)
	for i := range nt.parent {
		from := "in"
		if p := nt.parent[i]; p >= 0 {
			from = nodeName(int(p))
		}
		idx := strconv.Itoa(i + 1)
		b = append(b, 'R')
		b = append(b, idx...)
		b = append(b, ' ')
		b = append(b, from...)
		b = append(b, " n"...)
		b = append(b, idx...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, nt.r[i], 'g', 12, 64)
		b = append(b, "\nC"...)
		b = append(b, idx...)
		b = append(b, " n"...)
		b = append(b, idx...)
		b = append(b, " 0 "...)
		b = strconv.AppendFloat(b, nt.c[i], 'g', 12, 64)
		b = append(b, '\n')
	}
	return append(b, ".end\n"...)
}

// tree builds the net directly, without the deck parser, for the
// output checks' oracles.
func (nt *net) tree() (*rctree.Tree, error) {
	b := rctree.NewBuilder()
	for i, p := range nt.parent {
		var err error
		if p < 0 {
			_, err = b.Root(nodeName(i), nt.r[i], nt.c[i])
		} else {
			_, err = b.Attach(int(p), nodeName(i), nt.r[i], nt.c[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// job is one analysis request: a net under one input, reporting the
// named sinks (nil: every node).
type job struct {
	id    string
	net   int
	rise  string
	sinks []string
}

// corpus is a workload's generated input: the nets and the job list
// over them, in submission order.
type corpus struct {
	workload string
	nets     []*net
	jobs     []job
}

// rises are the three inputs a characterization sweep applies to each
// net: the ideal step and two saturated ramps (Corollary 2).
var rises = []string{"step", "0.5n", "2n"}

// Workload sizes. A batch corpus is sized so one boundstat process
// runs for roughly a second on a 2-vCPU box; the run repeats it.
const (
	sweepNets     = 400 // distinct ~200-node decks, three jobs each
	sweepNodesMin = 180
	sweepNodesMax = 220

	deepChains   = 18 // chains of 2k–6k nodes
	deepChainMin = 2000
	deepChainMax = 6000
	deepWide     = 2 // wide random trees above the level-parallel threshold
	deepWideMin  = rctree.MinParallelNodes
	deepWideMax  = rctree.MinParallelNodes + 4096
)

// namedSinks picks three sinks of an n-node net: the last node, the
// middle one and a random one.
func namedSinks(r *rng, n int) []string {
	return []string{nodeName(n - 1), nodeName(n / 2), nodeName(r.intn(n))}
}

// buildCorpus generates the batch workload's corpus from seed.
func buildCorpus(workload string, seed int64) (*corpus, error) {
	c := &corpus{workload: workload}
	switch workload {
	case "sweep-small":
		r := newRNG(seed, 1)
		for k := 0; k < sweepNets; k++ {
			n := sweepNodesMin + r.intn(sweepNodesMax-sweepNodesMin+1)
			c.nets = append(c.nets, randomNet(r, fmt.Sprintf("s%04d", k), n, 0.5))
		}
		for k := range c.nets {
			for _, rise := range rises {
				c.jobs = append(c.jobs, job{net: k, rise: rise})
			}
		}
		// Shuffle so a net's three jobs land apart, as a sweep over a
		// library would submit them, not back to back on one worker.
		for i := len(c.jobs) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			c.jobs[i], c.jobs[j] = c.jobs[j], c.jobs[i]
		}
	case "deep-nets":
		r := newRNG(seed, 2)
		// Job 0 is a 4-node probe, so the first result line marks the
		// end of the program's set-up rather than a deep net's analysis.
		c.nets = append(c.nets, randomNet(r, "probe", 4, 0.5))
		// Sizes are evenly spaced over each range, with a seeded jitter, so
		// every seed has the same size mix and only the circuits differ.
		for k := 0; k < deepChains; k++ {
			n := deepChainMin + k*(deepChainMax-deepChainMin)/(deepChains-1) - r.intn(64)
			c.nets = append(c.nets, randomNet(r, fmt.Sprintf("chain%02d", k), max(n, deepChainMin), 1))
		}
		for k := 0; k < deepWide; k++ {
			n := deepWideMin + k*(deepWideMax-deepWideMin)/max(deepWide-1, 1) + r.intn(64)
			c.nets = append(c.nets, randomNet(r, fmt.Sprintf("wide%02d", k), n, 0.05))
		}
		// Largest nets first, as a scheduler that knows sizes submits
		// them, so the batch does not end on one long straggler.
		order := make([]int, len(c.nets)-1)
		for i := range order {
			order[i] = i + 1
		}
		sort.SliceStable(order, func(a, b int) bool { return c.nets[order[a]].n() > c.nets[order[b]].n() })
		c.jobs = append(c.jobs, job{net: 0, rise: "step", sinks: []string{nodeName(3)}})
		for _, k := range order {
			c.jobs = append(c.jobs, job{net: k, rise: "step", sinks: namedSinks(r, c.nets[k].n())})
		}
	default:
		return nil, fmt.Errorf("no batch corpus for workload %q", workload)
	}
	for i := range c.jobs {
		c.jobs[i].id = fmt.Sprintf("j%05d", i)
	}
	return c, nil
}

// repeatFrac is the share of jobs whose net an earlier job already
// used.
func (c *corpus) repeatFrac() float64 {
	seen := make(map[int]bool, len(c.nets))
	rep := 0
	for _, j := range c.jobs {
		if seen[j.net] {
			rep++
		}
		seen[j.net] = true
	}
	return float64(rep) / float64(len(c.jobs))
}

// jobSpec is the boundstat -jobs line for one job.
type jobSpec struct {
	ID      string   `json:"id"`
	Net     string   `json:"net,omitempty"`
	Netlist string   `json:"netlist,omitempty"`
	Sinks   []string `json:"sinks,omitempty"`
	Rise    string   `json:"rise"`
}

func (c *corpus) deckPath(dir string, k int) string {
	return filepath.Join(dir, "nets", c.nets[k].name+".sp")
}

// write stores the decks and dir/jobs.ndjson under dir and returns the
// SHA-256 digest of everything written.
func (c *corpus) write(dir string) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(dir, "nets"), 0o755); err != nil {
		return "", err
	}
	h := sha256.New()
	for k, nt := range c.nets {
		d := nt.deck()
		fmt.Fprintf(h, "%s %d\n", nt.name, len(d))
		h.Write(d)
		if err := os.WriteFile(c.deckPath(dir, k), d, 0o644); err != nil {
			return "", err
		}
	}
	var jobs []byte
	for _, j := range c.jobs {
		line, err := json.Marshal(jobSpec{ID: j.id, Net: filepath.Join("nets", c.nets[j.net].name+".sp"), Sinks: j.sinks, Rise: j.rise})
		if err != nil {
			return "", err
		}
		jobs = append(append(jobs, line...), '\n')
	}
	h.Write(jobs)
	if err := os.WriteFile(filepath.Join(dir, "jobs.ndjson"), jobs, 0o644); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

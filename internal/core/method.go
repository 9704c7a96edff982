package core

import (
	"fmt"
	"sort"
	"strings"

	"wormnoc/internal/noc"
)

// method is the per-analysis strategy plugged into the engine: how a hit
// of a direct interferer is priced, and how downstream indirect
// interference is bounded. Implementations must be stateless — all
// mutable state lives in the analyzer — so one registry entry can serve
// concurrent runs of the same Engine.
type method interface {
	// term prices direct interferer τj acting on τi: the jitter term
	// entering the hit count and the cost of one hit. An error means the
	// term depends on a flow that was not schedulable.
	term(a *analyzer, i, j int) (jitter, hit noc.Cycles, err error)
	// idown returns the downstream indirect interference I^down_{ji}
	// added to every hit of τj on τi (zero for the analyses that predate
	// the MPB characterisation).
	idown(a *analyzer, j, i int) (noc.Cycles, error)
	// explainTerm fills the per-interferer fields of a Breakdown term,
	// except Hits and Total which depend on the analysed flow's final
	// bound and are filled by Explain itself.
	explainTerm(a *analyzer, i, j int) (InterferenceTerm, error)
}

// methods is the analysis registry. The four analyses of the paper
// register themselves below; lookupMethod rejects selectors with no
// entry, replacing the range checks previously scattered through
// Analyze and Explain.
var methods = map[Method]method{}

func registerMethod(id Method, m method) {
	if _, dup := methods[id]; dup {
		panic("core: duplicate analysis method " + id.String())
	}
	methods[id] = m
}

func init() {
	registerMethod(SB, sbMethod{})
	registerMethod(XLWX, xlwxMethod{})
	registerMethod(IBN, ibnMethod{})
	registerMethod(SLA, slaMethod{})
}

// Methods returns the selectors of every registered analysis in
// ascending selector order. The set is fixed at init time, so the result
// is stable for the lifetime of the process.
func Methods() []Method {
	out := make([]Method, 0, len(methods))
	for id := range methods {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ParseMethod maps a case-insensitive analysis name ("IBN", "xlwx", …)
// to its selector — the inverse of Method.String. It is the single
// parser shared by the CLIs and the HTTP service, so an unknown name
// yields the same error text everywhere.
func ParseMethod(s string) (Method, error) {
	want := strings.ToUpper(strings.TrimSpace(s))
	for _, id := range Methods() {
		if id.String() == want {
			return id, nil
		}
	}
	names := make([]string, 0, len(methods))
	for _, id := range Methods() {
		names = append(names, id.String())
	}
	return 0, fmt.Errorf("core: unknown analysis method %q (want one of %s)", s, strings.Join(names, ", "))
}

// baseExplainTerm fills the method-independent fields of a breakdown
// term for direct interferer τj on τi.
func baseExplainTerm(a *analyzer, i, j int) InterferenceTerm {
	return InterferenceTerm{
		Interferer:       j,
		Cj:               a.sys.C(j),
		Downstream:       a.sets.Downstream(i, j),
		Upstream:         a.sets.Upstream(i, j),
		ContentionDomain: a.sets.cd.size(i, j),
	}
}

// sbMethod is the Shi & Burns 2008 analysis: every hit costs C_j alone,
// and the interference jitter of τj is added only when τj itself suffers
// interference from flows indirect to τi (the back-to-back hit
// scenario). Exactly what MPB invalidates — kept as the historic
// baseline of Figure 4.
type sbMethod struct{}

func (sbMethod) term(a *analyzer, i, j int) (jitter, hit noc.Cycles, err error) {
	jitter = a.sys.Flow(j).Jitter
	if a.hasIndirectVia(i, j) {
		jitter = noc.SatAdd(jitter, a.R[j]-a.sys.C(j))
	}
	return jitter, a.sys.C(j), nil
}

func (sbMethod) idown(a *analyzer, j, i int) (noc.Cycles, error) { return 0, nil }

func (m sbMethod) explainTerm(a *analyzer, i, j int) (InterferenceTerm, error) {
	t := baseExplainTerm(a, i, j)
	t.Jitter, t.PerHit, _ = m.term(a, i, j)
	return t, nil
}

// slaMethod is the simplified stage-level analysis (see sla.go): SB with
// each hit refined by the overlap τi can buffer along the contention
// domain. Like SB it is unsafe under MPB.
type slaMethod struct{}

func (slaMethod) term(a *analyzer, i, j int) (jitter, hit noc.Cycles, err error) {
	jitter = a.sys.Flow(j).Jitter
	if a.hasIndirectVia(i, j) {
		jitter = noc.SatAdd(jitter, a.R[j]-a.sys.C(j))
	}
	return jitter, a.slaHit(i, j), nil
}

func (slaMethod) idown(a *analyzer, j, i int) (noc.Cycles, error) { return 0, nil }

func (m slaMethod) explainTerm(a *analyzer, i, j int) (InterferenceTerm, error) {
	t := baseExplainTerm(a, i, j)
	t.Jitter, t.PerHit, _ = m.term(a, i, j)
	return t, nil
}

// xlwxMethod is Equation 5: hits of τj are counted with release plus
// interference jitter, each hit costing C_j plus the downstream indirect
// interference I^down_{ji} of Equation 3.
type xlwxMethod struct{}

func (m xlwxMethod) term(a *analyzer, i, j int) (jitter, hit noc.Cycles, err error) {
	jitter = noc.SatAdd(a.sys.Flow(j).Jitter, a.R[j]-a.sys.C(j))
	idown, err := m.idown(a, j, i)
	if err != nil {
		return 0, 0, err
	}
	return jitter, noc.SatAdd(a.sys.C(j), idown), nil
}

func (xlwxMethod) idown(a *analyzer, j, i int) (noc.Cycles, error) {
	return a.idownXLWX(a.sets.pairRank(j, i))
}

func (m xlwxMethod) explainTerm(a *analyzer, i, j int) (InterferenceTerm, error) {
	t := baseExplainTerm(a, i, j)
	jitter, hit, err := m.term(a, i, j)
	if err != nil {
		return t, err
	}
	t.Jitter, t.PerHit = jitter, hit
	t.IDown = hit - t.Cj
	return t, nil
}

// ibnMethod is the paper's proposed buffer-aware analysis: XLWX with
// each downstream hit's replayed interference bounded by the buffer
// capacity of the contention domain (Equations 6–8).
type ibnMethod struct{}

func (m ibnMethod) term(a *analyzer, i, j int) (jitter, hit noc.Cycles, err error) {
	jitter = noc.SatAdd(a.sys.Flow(j).Jitter, a.R[j]-a.sys.C(j))
	idown, err := m.idown(a, j, i)
	if err != nil {
		return 0, 0, err
	}
	return jitter, noc.SatAdd(a.sys.C(j), idown), nil
}

func (ibnMethod) idown(a *analyzer, j, i int) (noc.Cycles, error) {
	return a.idownIBN(a.sets.pairRank(j, i), i)
}

func (m ibnMethod) explainTerm(a *analyzer, i, j int) (InterferenceTerm, error) {
	t := baseExplainTerm(a, i, j)
	jitter, hit, err := m.term(a, i, j)
	if err != nil {
		return t, err
	}
	t.Jitter, t.PerHit = jitter, hit
	t.IDown = hit - t.Cj
	t.BufferedInterference = a.sets.BufferedInterference(i, j, a.opt.BufDepth)
	t.UsedFallback = !a.opt.NoUpstreamFallback && len(t.Upstream) > 0
	return t, nil
}

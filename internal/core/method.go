package core

import (
	"fmt"
	"strings"

	"wormnoc/internal/noc"
)

// Methods returns the selectors of the four analyses in ascending
// selector order. The caller owns the returned slice.
func Methods() []Method { return []Method{SB, XLWX, IBN, SLA} }

// ParseMethod maps a case-insensitive analysis name ("IBN", "xlwx", …)
// to its selector — the inverse of Method.String. It is the single
// parser shared by the CLIs and the HTTP service, so an unknown name
// yields the same error text everywhere.
func ParseMethod(s string) (Method, error) {
	want := strings.ToUpper(strings.TrimSpace(s))
	var names []string
	for _, id := range Methods() {
		if id.String() == want {
			return id, nil
		}
		names = append(names, id.String())
	}
	return 0, fmt.Errorf("core: unknown analysis method %q (want one of %s)", s, strings.Join(names, ", "))
}

// term prices direct interferer τj acting on τi under the run's method:
// the jitter entering the hit count and the cost of one hit. An error
// means the term depends on a flow that was not schedulable.
//
//   - SB: hits are counted with J_j, plus τj's interference jitter
//     R_j − C_j only when τj suffers interference from flows indirect to
//     τi (the back-to-back hit); each hit costs C_j. Exactly what MPB
//     invalidates — kept as the historic baseline of Figure 4.
//   - SLA: SB with each hit refined by the overlap τi can buffer along
//     the contention domain (sla.go). Like SB it is unsafe under MPB.
//   - XLWX (Equation 5): hits are counted with J_j + R_j − C_j, each
//     costing C_j plus the downstream indirect interference I^down_ji
//     of Equation 3.
//   - IBN: XLWX with each downstream hit's replayed interference bounded
//     by the buffer capacity of the contention domain (Equations 6–8).
func (a *analyzer) term(i, j int) (jitter, hit noc.Cycles, err error) {
	fj, cj := a.sys.Flow(j), a.sys.C(j)
	r := a.sets.pairRank(j, i)
	switch a.opt.Method {
	case SB, SLA:
		jitter = fj.Jitter
		if a.sets.hasIndirectVia(r) {
			jitter = noc.SatAdd(jitter, a.R[j]-cj)
		}
		if a.opt.Method == SLA {
			return jitter, a.slaHit(i, j), nil
		}
		return jitter, cj, nil
	}
	var idown noc.Cycles
	if a.opt.Method == XLWX {
		idown, err = a.idownXLWX(r)
	} else { // IBN; prepare rejects every other selector
		idown, err = a.idownIBN(r, i)
	}
	if err != nil {
		return 0, 0, err
	}
	return noc.SatAdd(fj.Jitter, a.R[j]-cj), noc.SatAdd(cj, idown), nil
}

// explainTerm fills the fields of τj's breakdown term on τi, except Hits
// and Total, which depend on τi's final bound and are filled by Explain.
func (a *analyzer) explainTerm(i, j int) (InterferenceTerm, error) {
	t := InterferenceTerm{
		Interferer:       j,
		Cj:               a.sys.C(j),
		Downstream:       a.sets.Downstream(i, j),
		Upstream:         a.sets.Upstream(i, j),
		ContentionDomain: a.sets.cd.size(i, j),
	}
	jitter, hit, err := a.term(i, j)
	if err != nil {
		return t, err
	}
	t.Jitter, t.PerHit = jitter, hit
	if a.opt.Method == XLWX || a.opt.Method == IBN {
		t.IDown = hit - t.Cj
	}
	if a.opt.Method == IBN {
		t.BufferedInterference = a.sets.BufferedInterference(i, j, a.opt.BufDepth)
		t.UsedFallback = !a.opt.NoUpstreamFallback && len(t.Upstream) > 0
	}
	return t, nil
}

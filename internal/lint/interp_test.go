package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadInterp type-checks the unit fixture and builds the full
// interprocedural context the way run() does.
func loadInterp(t *testing.T, dir, importPath string) (*Module, *Interp) {
	t.Helper()
	mod, err := LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var anns []*annotations
	for _, pkg := range mod.Pkgs {
		anns = append(anns, annotate(mod.Fset, pkg))
	}
	return mod, buildInterp(mod, anns, buildCallGraph(mod))
}

// node resolves a function by bare name through the call graph.
func node(t *testing.T, ip *Interp, name string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range ip.Graph.BottomUp {
		if n.Fn.Name() == name {
			if found != nil {
				t.Fatalf("function name %s is ambiguous in the fixture", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("function %s not in the call graph", name)
	}
	return found
}

func summaryOf(t *testing.T, ip *Interp, name string) *Summary {
	t.Helper()
	s := ip.SummaryOf(node(t, ip, name).Fn)
	if s == nil {
		t.Fatalf("no summary for %s", name)
	}
	return s
}

func TestSummaryLockFacts(t *testing.T) {
	_, ip := loadInterp(t, "interp", "fixture/interp")

	recvMu := lockRef{Slot: -1, Mu: "mu"}
	if s := summaryOf(t, ip, "locker"); s.LockDelta[recvMu] != 1 || !s.MayAcquire[recvMu] {
		t.Errorf("locker: LockDelta=%v MayAcquire=%v, want +1 and may-acquire on recv.mu", s.LockDelta, s.MayAcquire)
	}
	if s := summaryOf(t, ip, "unlocker"); s.LockDelta[recvMu] != -1 {
		t.Errorf("unlocker: LockDelta=%v, want -1 on recv.mu", s.LockDelta)
	}
	if s := summaryOf(t, ip, "peek"); !s.Requires[recvMu] {
		t.Errorf("peek: Requires=%v, want recv.mu (lint:holds)", s.Requires)
	}
	// The wrapper never locks, so peek's receiver obligation lands on the
	// wrapper's first parameter.
	if s := summaryOf(t, ip, "wrapper"); !s.Requires[lockRef{Slot: 0, Mu: "mu"}] {
		t.Errorf("wrapper: Requires=%v, want inherited param-0 mu obligation", s.Requires)
	}
}

func TestSummaryOwnershipFacts(t *testing.T) {
	_, ip := loadInterp(t, "interp", "fixture/interp")

	if s := summaryOf(t, ip, "handOut"); !s.ReturnsShared[0] || s.ReturnsFresh[0] {
		t.Errorf("handOut: shared=%v fresh=%v, want returns-shared", s.ReturnsShared, s.ReturnsFresh)
	}
	if s := summaryOf(t, ip, "copyOut"); !s.ReturnsFresh[0] || s.ReturnsShared[0] {
		t.Errorf("copyOut: fresh=%v shared=%v, want returns-fresh", s.ReturnsFresh, s.ReturnsShared)
	}
	if s := summaryOf(t, ip, "growCopy"); !s.ReturnsFresh[0] {
		t.Errorf("growCopy: fresh=%v, want returns-fresh (self-append must stay neutral)", s.ReturnsFresh)
	}
	if s := summaryOf(t, ip, "passThrough"); s.ReturnsParam[0] != 0 {
		t.Errorf("passThrough: ReturnsParam=%v, want result 0 -> param 0", s.ReturnsParam)
	}
	if s := summaryOf(t, ip, "publish"); !s.EscapesParam[0] {
		t.Errorf("publish: EscapesParam=%v, want param 0 escaping via the package-level store", s.EscapesParam)
	}
}

func TestCallGraphShape(t *testing.T) {
	_, ip := loadInterp(t, "interp", "fixture/interp")
	g := ip.Graph

	index := map[*FuncNode]int{}
	for i, n := range g.BottomUp {
		index[n] = i
	}
	peek, wrapper := node(t, ip, "peek"), node(t, ip, "wrapper")
	if index[peek] >= index[wrapper] {
		t.Errorf("bottom-up order has wrapper (%d) before its callee peek (%d)", index[wrapper], index[peek])
	}
	edge := false
	for _, c := range wrapper.Callees {
		if c == peek {
			edge = true
		}
	}
	if !edge {
		t.Error("wrapper -> peek call edge missing")
	}
	even, odd := node(t, ip, "even"), node(t, ip, "odd")
	if !g.SameCycle(even, odd) {
		t.Error("even and odd are mutually recursive but not in the same SCC")
	}
	if g.SameCycle(even, peek) {
		t.Error("even and peek must not share an SCC")
	}
	reach := g.Reachable([]*FuncNode{wrapper})
	if !reach[wrapper] || !reach[peek] {
		t.Errorf("Reachable(wrapper) = %v, want wrapper and peek", reach)
	}
	if reach[even] {
		t.Error("Reachable(wrapper) must not include even")
	}
}

// TestInterpRemovesFalsePositive: fpDemo appends into a call result whose
// provenance only copyOut's returns-fresh summary settles; the engine must
// not report it (the fixture's golden pins the full sharedmut report).
func TestInterpRemovesFalsePositive(t *testing.T) {
	rep := loadFixture(t, "interp", "fixture/interp", "sharedmut")
	for _, d := range rep.Diags {
		if strings.Contains(d.Msg, "append may write into the shared backing array of out") {
			t.Errorf("engine reported the fpDemo false positive: %v", d)
		}
	}
}

// TestInterpCatchesWhatIntraMisses is the acceptance check for the
// interprocedural layer: on the *_interp fixtures every seeded violation
// crosses a function boundary, and the summary-driven engine reports each
// one.
func TestInterpCatchesWhatIntraMisses(t *testing.T) {
	cases := []struct {
		pass, dir, importPath string
		wantMsgs              []string
	}{
		{"lockguard", "lockguard_interp", "fixture/lockguard_interp", []string{
			"accessed without holding c.mu",
			"possible self-deadlock",
		}},
		{"sharedmut", "sharedmut_interp", "fixture/sharedmut_interp", []string{
			"sorts t.snapshot() in place",
			"append may write into the shared backing array",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			rep := loadFixture(t, tc.dir, tc.importPath, tc.pass)
			if len(rep.Diags) != len(tc.wantMsgs) {
				t.Fatalf("engine reported %d finding(s), want %d: %v", len(rep.Diags), len(tc.wantMsgs), rep.Diags)
			}
			for i, want := range tc.wantMsgs {
				if !strings.Contains(rep.Diags[i].Msg, want) {
					t.Errorf("diag %d = %q, want substring %q", i, rep.Diags[i].Msg, want)
				}
			}
		})
	}
}

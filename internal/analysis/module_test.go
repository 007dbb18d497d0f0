package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// onlyAnalyzer filters a diagnostic list down to one analyzer's findings.
func onlyAnalyzer(diags []Diagnostic, name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Analyzer == name {
			out = append(out, d)
		}
	}
	return out
}

// TestPurityCrossPackage is the fact-propagation acceptance test: the
// root lives in fixture/purefix/b, the mutator in fixture/purefix/a, and
// the analyzer must report BOTH the write site in a (from a's own facts)
// and the call site in b — a diagnostic in the importing package that
// exists only because of a fact exported by its dependency.
func TestPurityCrossPackage(t *testing.T) {
	pkgs := loadFixtures(t)
	p := Purity{Roots: []PurityRoot{{PkgSuffix: "purefix/b", Func: "Run"}}}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{p}), "purity")
	if len(diags) != 2 {
		t.Fatalf("purity reported %d diagnostics, want 2 (write site + call site):\n%v", len(diags), diags)
	}
	var writeSite, callSite *Diagnostic
	for i := range diags {
		switch {
		case strings.Contains(diags[i].Message, "a.Tick writes package-level a.calls"):
			writeSite = &diags[i]
		case strings.Contains(diags[i].Message, "call to a.Tick (writes package-level a.calls)"):
			callSite = &diags[i]
		}
	}
	if writeSite == nil || callSite == nil {
		t.Fatalf("missing write-site or call-site diagnostic:\n%v", diags)
	}
	if !strings.HasSuffix(writeSite.Pos.Filename, filepath.Join("a", "a.go")) {
		t.Errorf("write site reported in %s, want purefix/a/a.go", writeSite.Pos.Filename)
	}
	if !strings.HasSuffix(callSite.Pos.Filename, filepath.Join("b", "b.go")) {
		t.Errorf("call site reported in %s, want purefix/b/b.go", callSite.Pos.Filename)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "determinism root b.Run") {
			t.Errorf("diagnostic does not name its root: %s", d)
		}
	}
}

// TestPurityDefaultRootsCleanOnFixtures checks the wired-in roots do not
// fire on packages that merely resemble the real tree.
func TestPurityDefaultRootsCleanOnFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{DefaultPurity()}), "purity")
	if len(diags) != 0 {
		t.Errorf("default purity roots fired on fixtures:\n%v", diags)
	}
}

// TestPurityObsRoots mirrors the internal/obs wiring: Trace methods as
// receiver-scoped wildcard roots over a tracer fixture. The
// instance-carried methods (Next, and Metrics.Add which is not rooted
// here) stay clean; Leak's write to the package-level sequence counter
// is the one finding.
func TestPurityObsRoots(t *testing.T) {
	pkgs := loadFixtures(t)
	p := Purity{Roots: []PurityRoot{{PkgSuffix: "purefix/obs", Recv: "Trace", Func: "*"}}}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{p}), "purity")
	if len(diags) != 1 {
		t.Fatalf("purity reported %d diagnostics, want 1 (Leak's write site):\n%v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "writes package-level obs.globalSeq") {
		t.Errorf("diagnostic does not name the global write: %s", d)
	}
	if !strings.Contains(d.Message, "Trace") || !strings.Contains(d.Message, "Leak") {
		t.Errorf("diagnostic does not identify Trace.Leak: %s", d)
	}
	if !strings.HasSuffix(d.Pos.Filename, filepath.Join("obs", "obs.go")) {
		t.Errorf("write site reported in %s, want purefix/obs/obs.go", d.Pos.Filename)
	}
}

// TestAllowAudit runs the full suite so every live directive gets its
// chance to suppress, then asserts the audit findings: allowfix carries
// one reasonless-but-used directive, one stale one, and one naming an
// unknown analyzer; every directive elsewhere in the fixtures is used
// and reasoned, so allowfix's three are the only findings.
func TestAllowAudit(t *testing.T) {
	pkgs := loadFixtures(t)
	diags := onlyAnalyzer(RunAll(pkgs, All(), AllModule()), "allowaudit")
	if len(diags) != 3 {
		t.Fatalf("allowaudit reported %d diagnostics, want 3:\n%v", len(diags), diags)
	}
	wants := []string{
		"//lint:allow seededrand lacks a reason",
		"stale //lint:allow floatcmp",
		"unknown analyzer flotcmp",
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
				if !strings.HasSuffix(d.Pos.Filename, "allowfix.go") {
					t.Errorf("audit finding %q reported in %s, want allowfix.go", w, d.Pos.Filename)
				}
			}
		}
		if !found {
			t.Errorf("missing audit finding containing %q in:\n%v", w, diags)
		}
	}
}

// TestRunAllOrderIndependence feeds RunAll the same packages in opposite
// orders: diagnostics — including the module passes built on facts and
// the call graph — must be identical.
func TestRunAllOrderIndependence(t *testing.T) {
	pkgs := loadFixtures(t)
	reversed := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		reversed[len(pkgs)-1-i] = p
	}
	a := RunAll(pkgs, All(), AllModule())
	b := RunAll(reversed, All(), AllModule())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("diagnostics depend on package load order:\nsorted: %v\nreversed: %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected fixture diagnostics, got none")
	}
}

// TestMapOrderCatchesSeededQuboBug seeds the exact bug class maporder
// exists for — an Ising energy fold in map iteration order inside an
// internal/qubo package — into a scratch module and asserts the analyzer
// catches it.
func TestMapOrderCatchesSeededQuboBug(t *testing.T) {
	dir := t.TempDir()
	src := `// Package qubo is a scratch copy with the pre-fix energy fold.
package qubo

// Energy folds couplings in map iteration order — the seeded bug.
func Energy(h []float64, j map[[2]int]float64, s []int8) float64 {
	v := 0.0
	for i, f := range h {
		v += f * float64(s[i])
	}
	for k, w := range j {
		v += w * float64(s[k[0]]) * float64(s[k[1]])
	}
	return v
}
`
	if err := os.MkdirAll(filepath.Join(dir, "internal", "qubo"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "qubo", "energy.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir, "scratch")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags := Run(pkgs, []Analyzer{MapOrder{}})
	if len(diags) != 1 {
		t.Fatalf("maporder reported %d diagnostics on the seeded bug, want 1 (the slice fold must not fire):\n%v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "floating-point accumulation into v in map iteration order") {
		t.Errorf("unexpected message: %s", d)
	}
	if !strings.HasSuffix(d.Pos.Filename, filepath.Join("qubo", "energy.go")) || d.Pos.Line != 11 {
		t.Errorf("seeded bug reported at %s:%d, want qubo/energy.go:11", d.Pos.Filename, d.Pos.Line)
	}
}

// checkModuleFixture runs one module analyzer over the whole fixture
// module and asserts its diagnostics match the want markers of the
// owned packages exactly, with every other fixture package clean.
func checkModuleFixture(t *testing.T, a ModuleAnalyzer, owned ...string) {
	t.Helper()
	pkgs := loadFixtures(t)
	ownedSet := make(map[string]bool)
	for _, p := range owned {
		ownedSet[p] = true
	}
	fileOwner := make(map[string]string)
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileOwner[f.Name] = pkg.Path
		}
		if ownedSet[pkg.Path] {
			w := collectWants(t, pkg)
			if len(w) == 0 {
				t.Fatalf("%s: fixture %s has no want markers", a.Name(), pkg.Path)
			}
			wants = append(wants, w...)
		}
	}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{a}), a.Name())
	matched := make([]bool, len(wants))
diag:
	for _, d := range diags {
		if !ownedSet[fileOwner[d.Pos.Filename]] {
			t.Errorf("%s: unexpected diagnostic outside owned packages: %s", a.Name(), d)
			continue
		}
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue diag
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", a.Name(), d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: missing diagnostic at %s:%d containing %q", a.Name(), w.file, w.line, w.substr)
		}
	}
}

// TestCtxFlowFixtures covers all four ctxflow rules over the ctxfix
// fixture: fresh contexts on solve paths (with root attribution),
// ctx-first ordering, annotated boundary loops, and the legacy-wrapper
// caller flag — with the wrapper package itself staying clean.
func TestCtxFlowFixtures(t *testing.T) {
	a := CtxFlow{Roots: []CallRoot{{PkgSuffix: "ctxfix/solver", FuncPrefix: "Solve"}}}
	checkModuleFixture(t, a, "fixture/ctxfix/solver")
}

// TestCtxFlowWrapperFactCrossPackage is the cross-package
// fact-propagation test for ctxflow: the wrapper fact is exported by
// wrapa's pass, and the diagnostic it causes lands at the call site in
// solver — a different package.
func TestCtxFlowWrapperFactCrossPackage(t *testing.T) {
	pkgs := loadFixtures(t)
	store := NewFactStore()
	for _, p := range pkgs {
		CtxFlow{}.ExportFacts(p, store)
	}
	facts := store.Select("fixture/ctxfix/wrapa", "RunLegacy", "ctxflow", "wrapper")
	if len(facts) != 1 {
		t.Fatalf("wrapper fact for wrapa.RunLegacy: got %d facts, want 1:\n%v", len(facts), facts)
	}
	if facts[0].Detail != "wrapa.RunCtx" {
		t.Errorf("wrapper fact detail = %q, want wrapa.RunCtx", facts[0].Detail)
	}
	a := CtxFlow{Roots: []CallRoot{{PkgSuffix: "ctxfix/solver", FuncPrefix: "Solve"}}}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{a}), "ctxflow")
	var callSite *Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "legacy wrapper wrapa.RunLegacy") {
			callSite = &diags[i]
		}
		if strings.Contains(diags[i].Message, "context.Background() in wrapa.RunLegacy") {
			t.Errorf("wrapper exemption failed, RunLegacy itself was flagged: %s", diags[i])
		}
	}
	if callSite == nil {
		t.Fatalf("missing wrapper-caller diagnostic in:\n%v", diags)
	}
	if !strings.HasSuffix(callSite.Pos.Filename, filepath.Join("solver", "solver.go")) {
		t.Errorf("wrapper-caller diagnostic in %s, want ctxfix/solver/solver.go", callSite.Pos.Filename)
	}
	if !strings.Contains(callSite.Message, "call wrapa.RunCtx directly") {
		t.Errorf("diagnostic does not name the ctx-aware variant: %s", callSite)
	}
}

// TestMaskWidthFixtures covers the taint inventory and every recognized
// guard shape: if-then, early bailout, guard predicate, split caps
// check, and bare width-check call.
func TestMaskWidthFixtures(t *testing.T) {
	a := MaskWidth{APIs: []MaskAPI{{PkgSuffix: "maskfix/bitapi", Func: "Mask"}}}
	checkModuleFixture(t, a, "fixture/maskfix/user")
}

// TestMaskWidthGuardedFacts asserts the guarded call sites are exported
// as machine-readable facts rather than silently dropped.
func TestMaskWidthGuardedFacts(t *testing.T) {
	pkgs := loadFixtures(t)
	a := MaskWidth{APIs: []MaskAPI{{PkgSuffix: "maskfix/bitapi", Func: "Mask"}}}
	sorted := sortedByPath(pkgs)
	m := &Module{Pkgs: sorted, Facts: NewFactStore(), Graph: BuildCallGraph(sorted)}
	for _, p := range sorted {
		a.ExportFacts(p, m.Facts)
	}
	a.CheckModule(m)
	guarded := m.Facts.Select("fixture/maskfix/user", "", "maskwidth", "guarded")
	if len(guarded) != 5 {
		t.Fatalf("guarded facts: got %d, want 5 (ThenGuard, BailGuard, PredGuard, SplitGuard, CheckedGuard):\n%v", len(guarded), guarded)
	}
	byObj := make(map[string]bool)
	for _, f := range guarded {
		byObj[f.Object] = true
	}
	for _, obj := range []string{"ThenGuard", "BailGuard", "PredGuard", "SplitGuard", "CheckedGuard"} {
		if !byObj[obj] {
			t.Errorf("missing guarded fact for %s in:\n%v", obj, guarded)
		}
	}
}

// TestErrWrapFixtures covers the three errwrap rules: unchained origins
// in the root package, chain loss at every reachable layer (with the
// lower-layer origin exemption), and module-wide discarded ctx-aware
// errors.
func TestErrWrapFixtures(t *testing.T) {
	a := ErrWrap{
		Roots:     []CallRoot{{PkgSuffix: "errwfix/solver", FuncPrefix: "Solve"}},
		Sentinels: []string{"ErrBadInput"},
	}
	checkModuleFixture(t, a, "fixture/errwfix/solver", "fixture/errwfix/lib")
}

// TestCtxFlowCatchesSeededProbeLoopBug seeds the exact bug class ctxflow
// exists for — a solver probe loop that accepts a context but never
// polls it — into a scratch internal/core module and asserts the default
// configuration catches it.
func TestCtxFlowCatchesSeededProbeLoopBug(t *testing.T) {
	dir := t.TempDir()
	src := `// Package core is a scratch copy with an unpropagated probe context.
package core

import "context"

// SolveMKP accepts a context but the probe loop never polls it — the
// seeded bug: cancellation waits for the whole binary search to drain.
func SolveMKP(ctx context.Context, n int) int {
	_ = ctx
	best := 0
	//ctx:boundary probe
	for lo, hi := 1, n; lo <= hi; {
		T := (lo + hi + 1) / 2
		if probe(T) {
			best = T
			lo = T + 1
		} else {
			hi = T - 1
		}
	}
	return best
}

func probe(T int) bool { return T%2 == 0 }

//ctx:boundary probe
var dangling = 1
`
	if err := os.MkdirAll(filepath.Join(dir, "internal", "core"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "core", "mkp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir, "scratch")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{DefaultCtxFlow()}), "ctxflow")
	if len(diags) != 2 {
		t.Fatalf("ctxflow reported %d diagnostics on the seeded bug, want 2 (unpolled probe loop + dangling annotation):\n%v", len(diags), diags)
	}
	var loop, dangle *Diagnostic
	for i := range diags {
		switch {
		case strings.Contains(diags[i].Message, "probe-boundary loop never checks ctx.Err()"):
			loop = &diags[i]
		case strings.Contains(diags[i].Message, "not attached to a loop"):
			dangle = &diags[i]
		}
	}
	if loop == nil || dangle == nil {
		t.Fatalf("missing expected diagnostics:\n%v", diags)
	}
	if !strings.HasSuffix(loop.Pos.Filename, filepath.Join("core", "mkp.go")) || loop.Pos.Line != 12 {
		t.Errorf("seeded bug reported at %s:%d, want core/mkp.go:12", loop.Pos.Filename, loop.Pos.Line)
	}
}

// TestDefaultRootsResolve resolves the ctxflow/errwrap roots against the
// real module. A root spec that matches nothing silently drops every
// check behind it, so renaming or deleting a solver entry point must fail
// here instead.
func TestDefaultRootsResolve(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."), "")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	roots, names := rootSet(BuildCallGraph(pkgs), defaultRoots())
	found := make(map[string]bool, len(roots))
	var resolved []string
	for _, fn := range roots {
		found[names[fn]] = true
		resolved = append(resolved, names[fn])
	}
	for _, want := range []string{"server.Execute", "core.SolveTKP", "core.SolveMKP", "core.SolveAnneal"} {
		if !found[want] {
			t.Errorf("default root %s not found in the module; resolved roots: %v", want, resolved)
		}
	}
}

// fixtureBless builds one test-policy grant; fixture grants carry a
// fixed reason so validate() stays satisfied.
func fixtureBless(pkg string, prims ...string) ConcRule {
	return ConcRule{Package: pkg, Allow: prims, Reason: "fixture grant"}
}

// fixtureConcPolicy blesses every concurrency-using fixture package
// except the concfix pair, so concfix's want markers are the only
// concpolicy findings over the fixture module. parfix's go statements
// need no grant: their //lint:allow concpolicy directives suppress them,
// which TestAllowAudit separately requires.
func fixtureConcPolicy() *ConcurrencyPolicy {
	return &ConcurrencyPolicy{Version: 1, Rules: []ConcRule{
		fixtureBless("fixture/parallel", "go", "chan"),
		fixtureBless("fixture/parfix", "waitgroup"),
		fixtureBless("fixture/mapfix", "syncmap"),
		fixtureBless("fixture/leakfix", "go", "chan", "waitgroup"),
		fixtureBless("fixture/lockfix", "mutex"),
		fixtureBless("fixture/capfix", "go", "mutex"),
	}}
}

// TestConcPolicyFixtures covers the syntactic half of concpolicy — one
// finding per (declaration, primitive) at its first occurrence, for
// every primitive the policy does not grant — and the interprocedural
// spawns-fact rule at concfix's call into spawnlib.
func TestConcPolicyFixtures(t *testing.T) {
	a := ConcPolicy{Policy: fixtureConcPolicy()}
	checkModuleFixture(t, a, "fixture/concfix", "fixture/concfix/spawnlib")
}

// TestConcPolicySpawnFactCrossPackage is the fact-propagation test for
// concpolicy: the spawns fact is exported by spawnlib's pass, and the
// diagnostic it causes lands at the call site in concfix — a different
// package.
func TestConcPolicySpawnFactCrossPackage(t *testing.T) {
	pkgs := loadFixtures(t)
	store := NewFactStore()
	for _, p := range pkgs {
		ConcPolicy{}.ExportFacts(p, store)
	}
	facts := store.Select("fixture/concfix/spawnlib", "StartWorker", "concpolicy", "spawns")
	if len(facts) != 1 {
		t.Fatalf("spawns fact for spawnlib.StartWorker: got %d facts, want 1:\n%v", len(facts), facts)
	}
	a := ConcPolicy{Policy: fixtureConcPolicy()}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{a}), "concpolicy")
	var callSite *Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "spawns goroutines (spawns fact at line") {
			callSite = &diags[i]
		}
	}
	if callSite == nil {
		t.Fatalf("missing spawns-fact call-site diagnostic in:\n%v", diags)
	}
	if !strings.HasSuffix(callSite.Pos.Filename, filepath.Join("concfix", "concfix.go")) {
		t.Errorf("call-site diagnostic in %s, want concfix/concfix.go", callSite.Pos.Filename)
	}
	if !strings.Contains(callSite.Message, "spawnlib.StartWorker") {
		t.Errorf("diagnostic does not name the spawning callee: %s", callSite)
	}
}

// TestGoLeakFixtures covers the join-or-cancel contract: WaitGroup,
// collector-receive and ctx.Done joins stay clean; the fire-and-forget
// spawn and the helper spawn escaping through a non-joining caller are
// flagged at the origin go statements.
func TestGoLeakFixtures(t *testing.T) {
	p := &ConcurrencyPolicy{Version: 1, Rules: []ConcRule{
		fixtureBless("fixture/leakfix", "go"),
	}}
	checkModuleFixture(t, GoLeak{Policy: p}, "fixture/leakfix")
}

// TestLockCheckFixtures covers all three lockcheck rules: the unpaired
// Lock, the by-value lock copies through parameter and receiver, and
// both lock-order cycles — the direct inversion and the one closed
// through lockD's exported locks fact.
func TestLockCheckFixtures(t *testing.T) {
	p := &ConcurrencyPolicy{Version: 1, Rules: []ConcRule{
		fixtureBless("fixture/lockfix", "mutex"),
	}}
	checkModuleFixture(t, LockCheck{Policy: p}, "fixture/lockfix")
}

// TestConcurrencyPolicyFilePinned pins CONC_POLICY.json — the policy
// file cmd/repro-lint documents as the concurrency contract — to the
// compiled-in default, so the two cannot drift apart silently.
func TestConcurrencyPolicyFilePinned(t *testing.T) {
	p, err := LoadConcurrencyPolicy(filepath.Join("..", "..", "CONC_POLICY.json"))
	if err != nil {
		t.Fatalf("LoadConcurrencyPolicy: %v", err)
	}
	if !reflect.DeepEqual(p, DefaultConcurrencyPolicy()) {
		t.Errorf("CONC_POLICY.json does not match DefaultConcurrencyPolicy():\nfile:    %+v\ndefault: %+v", p, DefaultConcurrencyPolicy())
	}
}

// TestLoadConcurrencyPolicyValidates rejects grants that do not document
// themselves: a missing reason and an unknown primitive both fail.
func TestLoadConcurrencyPolicyValidates(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, wantErr string
	}{
		{"no-reason", `{"version":1,"packages":[{"package":"internal/x","allow":["go"],"reason":""}]}`, "has no reason"},
		{"unknown-primitive", `{"version":1,"packages":[{"package":"internal/x","allow":["semaphore"],"reason":"r"}]}`, "unknown primitive"},
		{"no-package", `{"version":1,"packages":[{"package":"","allow":["go"],"reason":"r"}]}`, "has no package"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConcurrencyPolicy(path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestGoLeakCatchesSeededLeak seeds the exact bug class goleak exists
// for — a pool helper that hands work to a goroutine nobody joins —
// into a scratch internal/parallel module (blessed for "go" by the
// default policy) and asserts the default configuration catches it.
func TestGoLeakCatchesSeededLeak(t *testing.T) {
	dir := t.TempDir()
	src := `// Package parallel is a scratch pool with the pre-fix spawn helper.
package parallel

// Launch hands the work to a goroutine nobody ever joins — the seeded
// leak: the spawn outlives the pool's lifecycle contract.
func Launch(work func()) {
	go work()
}
`
	if err := os.MkdirAll(filepath.Join(dir, "internal", "parallel"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "parallel", "pool.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir, "scratch")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{DefaultGoLeak()}), "goleak")
	if len(diags) != 1 {
		t.Fatalf("goleak reported %d diagnostics on the seeded leak, want 1:\n%v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "goroutine spawned in parallel.Launch has no statically visible join") {
		t.Errorf("unexpected message: %s", d)
	}
	if !strings.HasSuffix(d.Pos.Filename, filepath.Join("parallel", "pool.go")) || d.Pos.Line != 7 {
		t.Errorf("seeded leak reported at %s:%d, want parallel/pool.go:7", d.Pos.Filename, d.Pos.Line)
	}
}

// TestLockCheckCatchesSeededLockCycle seeds the exact bug class the
// lock-order graph exists for — a metrics registry taking two mutexes
// in opposite orders on two paths — into a scratch internal/obs module
// (blessed for "mutex" by the default policy) and asserts the default
// configuration reports the cycle.
func TestLockCheckCatchesSeededLockCycle(t *testing.T) {
	dir := t.TempDir()
	src := `// Package obs is a scratch metrics registry with the pre-fix locking.
package obs

import "sync"

var regMu sync.Mutex
var snapMu sync.Mutex

// Register takes the registry lock, then the snapshot lock.
func Register() {
	regMu.Lock()
	snapMu.Lock()
	snapMu.Unlock()
	regMu.Unlock()
}

// Snapshot nests the same pair the other way — the seeded deadlock.
func Snapshot() {
	snapMu.Lock()
	regMu.Lock()
	regMu.Unlock()
	snapMu.Unlock()
}
`
	if err := os.MkdirAll(filepath.Join(dir, "internal", "obs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "obs", "metrics.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir, "scratch")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags := onlyAnalyzer(RunAll(pkgs, nil, []ModuleAnalyzer{DefaultLockCheck()}), "lockcheck")
	if len(diags) != 1 {
		t.Fatalf("lockcheck reported %d diagnostics on the seeded cycle, want 1:\n%v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "lock-order cycle among obs.regMu, obs.snapMu") {
		t.Errorf("unexpected message: %s", d)
	}
	if !strings.HasSuffix(d.Pos.Filename, filepath.Join("obs", "metrics.go")) || d.Pos.Line != 12 {
		t.Errorf("seeded cycle reported at %s:%d, want obs/metrics.go:12", d.Pos.Filename, d.Pos.Line)
	}
}

// TestStaleConcurrencyLedgerEntries proves the TestSelfClean stale-entry
// guard extends to the concurrency analyzers: a ledger fingerprint for a
// concpolicy/goleak/lockcheck/sharedcap finding that no longer fires is
// not accepted by Partition, so accepted < ledger size — exactly the
// condition TestSelfClean turns into a CI failure.
func TestStaleConcurrencyLedgerEntries(t *testing.T) {
	var gone []Diagnostic
	for _, name := range []string{"concpolicy", "goleak", "lockcheck", "sharedcap"} {
		gone = append(gone, Diagnostic{
			Pos:      token.Position{Filename: "internal/parallel/pool.go", Line: 1},
			Analyzer: name,
			Message:  "finding fixed since the ledger was written",
		})
	}
	b := NewBaseline("repro", gone, ".")
	if len(b.Findings) != len(gone) {
		t.Fatalf("ledger holds %d findings, want %d", len(b.Findings), len(gone))
	}
	fresh, accepted := b.Partition(nil, ".")
	if len(fresh) != 0 {
		t.Errorf("no diagnostics fired but Partition returned %d fresh", len(fresh))
	}
	if len(accepted) != 0 {
		t.Errorf("stale ledger entries were accepted: %v", accepted)
	}
}

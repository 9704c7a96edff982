package noc

import (
	"strings"
	"testing"
)

func defaultCfg() RouterConfig {
	return RouterConfig{BufDepth: 2, LinkLatency: 1, RouteLatency: 0}
}

func TestNewMeshDimensions(t *testing.T) {
	cases := []struct {
		w, h      int
		wantLinks int
	}{
		// links = 2·W·H (inj+ej) + 2·(mesh edges); mesh edges =
		// H·(W-1) + W·(H-1) per direction.
		{2, 2, 2*4 + 2*(2*1+2*1)},
		{4, 4, 2*16 + 2*(4*3+4*3)},
		{6, 1, 2*6 + 2*5},
		{1, 6, 2*6 + 2*5},
		{3, 5, 2*15 + 2*(5*2+3*4)},
		{10, 10, 2*100 + 2*(10*9+10*9)},
	}
	for _, tc := range cases {
		topo, err := NewMesh(tc.w, tc.h, defaultCfg())
		if err != nil {
			t.Fatalf("NewMesh(%d,%d): %v", tc.w, tc.h, err)
		}
		if got := topo.NumNodes(); got != tc.w*tc.h {
			t.Errorf("%dx%d: NumNodes = %d, want %d", tc.w, tc.h, got, tc.w*tc.h)
		}
		if got := topo.NumLinks(); got != tc.wantLinks {
			t.Errorf("%dx%d: NumLinks = %d, want %d", tc.w, tc.h, got, tc.wantLinks)
		}
		if topo.Width() != tc.w || topo.Height() != tc.h {
			t.Errorf("%dx%d: dimensions mismatch: %dx%d", tc.w, tc.h, topo.Width(), topo.Height())
		}
	}
}

func TestNewMeshRejectsBadInput(t *testing.T) {
	if _, err := NewMesh(0, 4, defaultCfg()); err == nil {
		t.Error("NewMesh(0,4) should fail")
	}
	if _, err := NewMesh(4, -1, defaultCfg()); err == nil {
		t.Error("NewMesh(4,-1) should fail")
	}
	if _, err := NewMesh(1, 1, defaultCfg()); err == nil {
		t.Error("NewMesh(1,1) should fail (needs >= 2 nodes)")
	}
	bad := []RouterConfig{
		{BufDepth: 0, LinkLatency: 1},
		{BufDepth: 2, LinkLatency: 0},
		{BufDepth: 2, LinkLatency: 1, RouteLatency: -1},
		{BufDepth: 2, LinkLatency: 1, NumVCs: -1},
	}
	for i, cfg := range bad {
		if _, err := NewMesh(4, 4, cfg); err == nil {
			t.Errorf("config %d (%+v) should be rejected", i, cfg)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	topo := MustMesh(7, 5, defaultCfg())
	for r := 0; r < topo.NumRouters(); r++ {
		x, y := topo.Coord(RouterID(r))
		if x < 0 || x >= 7 || y < 0 || y >= 5 {
			t.Fatalf("router %d: coord (%d,%d) out of mesh", r, x, y)
		}
		if back := topo.RouterAt(x, y); back != RouterID(r) {
			t.Fatalf("RouterAt(Coord(%d)) = %d", r, int(back))
		}
	}
}

func TestLinkEndpointsAndKinds(t *testing.T) {
	topo := MustMesh(3, 3, defaultCfg())
	inj, ej, mesh := 0, 0, 0
	for _, l := range topo.Links() {
		switch l.Kind {
		case Injection:
			inj++
			if l.Src != l.Dst {
				t.Errorf("injection link %v must connect a node to its own router", l)
			}
		case Ejection:
			ej++
			if l.Src != l.Dst {
				t.Errorf("ejection link %v must connect a router to its own node", l)
			}
		case Mesh:
			mesh++
			ax, ay := topo.Coord(l.Src)
			bx, by := topo.Coord(l.Dst)
			if abs(ax-bx)+abs(ay-by) != 1 {
				t.Errorf("mesh link %v connects non-neighbours", l)
			}
		}
		if topo.Link(l.ID) != l {
			t.Errorf("Link(%d) does not round-trip", int(l.ID))
		}
	}
	if inj != 9 || ej != 9 || mesh != 24 {
		t.Errorf("link census = %d/%d/%d, want 9/9/24", inj, ej, mesh)
	}
}

func TestMeshLinkDirections(t *testing.T) {
	topo := MustMesh(3, 3, defaultCfg())
	center := topo.RouterAt(1, 1)
	for _, d := range []Direction{East, West, North, South} {
		l := topo.MeshLink(center, d)
		if l == NoLink {
			t.Fatalf("center router should have a %v link", d)
		}
		link := topo.Link(l)
		x, y := topo.Coord(link.Dst)
		switch d {
		case East:
			if x != 2 || y != 1 {
				t.Errorf("east of (1,1) is (%d,%d)", x, y)
			}
		case West:
			if x != 0 || y != 1 {
				t.Errorf("west of (1,1) is (%d,%d)", x, y)
			}
		case North:
			if x != 1 || y != 2 {
				t.Errorf("north of (1,1) is (%d,%d)", x, y)
			}
		case South:
			if x != 1 || y != 0 {
				t.Errorf("south of (1,1) is (%d,%d)", x, y)
			}
		}
	}
	// Boundary routers lack outward links.
	if topo.MeshLink(topo.RouterAt(0, 0), West) != NoLink {
		t.Error("(0,0) should have no west link")
	}
	if topo.MeshLink(topo.RouterAt(2, 2), North) != NoLink {
		t.Error("(2,2) should have no north link")
	}
}

func TestWithConfig(t *testing.T) {
	topo := MustMesh(4, 4, defaultCfg())
	big, err := topo.WithConfig(RouterConfig{BufDepth: 100, LinkLatency: 2, RouteLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.Config().BufDepth != 100 || topo.Config().BufDepth != 2 {
		t.Error("WithConfig must not mutate the original")
	}
	if big.NumLinks() != topo.NumLinks() {
		t.Error("WithConfig must preserve structure")
	}
	if _, err := topo.WithConfig(RouterConfig{}); err == nil {
		t.Error("WithConfig must validate")
	}
}

func TestStringers(t *testing.T) {
	topo := MustMesh(2, 2, defaultCfg())
	if s := topo.String(); !strings.Contains(s, "2x2") {
		t.Errorf("Topology.String() = %q", s)
	}
	for _, k := range []LinkKind{Injection, Mesh, Ejection, LinkKind(9)} {
		if k.String() == "" {
			t.Errorf("LinkKind(%d).String() empty", k)
		}
	}
	for _, d := range []Direction{East, West, North, South, Direction(9)} {
		if d.String() == "" {
			t.Errorf("Direction(%d).String() empty", d)
		}
	}
	for _, l := range topo.Links() {
		if !strings.Contains(l.String(), "λ") {
			t.Errorf("Link.String() = %q", l.String())
		}
	}
}

func TestContainsNode(t *testing.T) {
	topo := MustMesh(3, 2, defaultCfg())
	for n := 0; n < 6; n++ {
		if !topo.ContainsNode(NodeID(n)) {
			t.Errorf("node %d should be contained", n)
		}
	}
	for _, n := range []int{-1, 6, 100} {
		if topo.ContainsNode(NodeID(n)) {
			t.Errorf("node %d should not be contained", n)
		}
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMesh with bad dims must panic")
		}
	}()
	MustMesh(0, 0, defaultCfg())
}

func TestSaturatingArithmetic(t *testing.T) {
	for _, tc := range []struct {
		a, b, sum, prod Cycles
	}{
		{0, 0, 0, 0},
		{3, 4, 7, 12},
		{MaxCycles, 0, MaxCycles, 0},
		{MaxCycles, 1, MaxCycles, MaxCycles},
		{MaxCycles - 5, 12, MaxCycles, MaxCycles},
		{1 << 32, 1 << 31, 1<<32 + 1<<31, MaxCycles},
		{1 << 31, 1 << 31, 1 << 32, 1 << 62},
	} {
		if got := SatAdd(tc.a, tc.b); got != tc.sum {
			t.Errorf("SatAdd(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.sum)
		}
		if got := SatMul(tc.a, tc.b); got != tc.prod {
			t.Errorf("SatMul(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.prod)
		}
	}
}

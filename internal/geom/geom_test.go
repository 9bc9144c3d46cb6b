package geom

import "testing"

func TestConvexPolygonIntersectsSegment(t *testing.T) {
	sq := []Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(-1, 0.5), Pt(2, 0.5), true},    // crosses
		{Pt(0.2, 0.2), Pt(0.8, 0.8), true}, // inside
		{Pt(-1, -1), Pt(-0.5, 2), false},   // left of square
		{Pt(-1, 1.5), Pt(2, 1.5), false},   // above
		{Pt(1, 1), Pt(2, 2), true},         // touches corner
		{Pt(-1, 2), Pt(2, -1), true},       // diagonal through
	}
	for _, tc := range cases {
		if got := ConvexPolygonIntersectsSegment(sq, tc.a, tc.b); got != tc.want {
			t.Errorf("segment %v-%v: got %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if ConvexPolygonIntersectsSegment(sq[:2], Pt(0, 0), Pt(1, 1)) {
		t.Error("degenerate polygon must not intersect")
	}
}

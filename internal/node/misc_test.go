package node

import (
	"strings"
	"testing"
)

func TestNodeString(t *testing.T) {
	c := newCluster(t, 25, 0.05, 94)
	nd := c.nodes[5]
	if s := nd.String(); !strings.Contains(s, nd.Info().Addr) {
		t.Fatalf("String(): %q", s)
	}
}

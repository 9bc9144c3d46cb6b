package main

import (
	"bytes"
	"strings"
	"testing"

	"voronet"
	"voronet/internal/geom"
	"voronet/internal/node"
	"voronet/internal/transport"
)

// TestClientModeRepliesToListen: in -connect mode the client receives its
// replies on the -listen address, which the answering members dial back,
// so a client on another host must listen where they can reach it.
// 127.0.0.2 stands in for that host here.
func TestClientModeRepliesToListen(t *testing.T) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	nd := node.New(ep, geom.Pt(0.5, 0.5), node.Config{DMin: voronet.DefaultDMin(1000), Seed: 1})
	if err := nd.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	in := strings.NewReader("put 0.25 0.75 hello\nget 0.25 0.75\nexit\n")
	if err := runClient(ep.Addr(), "127.0.0.2:0", in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "client 127.0.0.2:") {
		t.Errorf("client does not reply-listen on 127.0.0.2:\n%s", got)
	}
	for _, want := range []string{`stored "hello" at (0.25, 0.75)`, `(0.25, 0.75) = "hello"`} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

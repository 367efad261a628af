package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// adjDigest hashes a graph's CSR arrays: off as little-endian u64s, then adj
// as little-endian u32s.
func adjDigest(g *AdjGraph) string {
	h := sha256.New()
	var buf [8]byte
	for _, o := range g.off {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	for _, u := range g.adj {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		h.Write(buf[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRandomRegularGolden pins NewRandomRegular's output byte for byte: the
// RNG draws, the repair swaps, the restarts and the CSR layout. Degree 2
// forces restarts (a 2-regular pairing often splits into several cycles),
// d = 8 at n = 10⁴ is the served sparse workload, and d = n-1 leaves the
// repair nothing to swap against, so most of those cases exhaust their
// restarts and pin "error".
func TestRandomRegularGolden(t *testing.T) {
	cases := []struct {
		n, d int
		seed uint64
		want string
	}{
		{8, 2, 1, "8029aab95d4de75b6231ec09fdef7e6a869bcba32753202047fa21f4a5920e3f"},
		{16, 2, 1, "eecebb6e6a31e2c25f45dbc1a857189a598062deba46d8c9d2bf6384a8f5b89d"},
		{30, 2, 12, "319800d6888965a0626afd62d289d425428fe81943d44f2f2137d952ce7adf4e"},
		{60, 2, 3, "e209b328a7e6ea40eb6d081ec6f9c602b132c7cf18e5cbb0b62e8dd0c983f6d2"},
		{1000, 2, 1, "1295a21b9bdb4bada7f808f0fde5a67fc6ab3f5307518a1619c854b7c182722a"},
		{12, 2, 5, "59ac64cc4c24bfa73849792c51694b207e20b5f709bea3fddc71f59e5619de5e"},
		{10, 3, 1, "c1bb138950ee8b356bcc7a46c33edf1e2f46dd558bec6b207b81290042cb43b7"},
		{50, 3, 2, "9e9168c8784d55e3df411847a633d0fc432a913e4b2aa8c7a08203e4f7f88bfc"},
		{1000, 3, 9, "2a15a391cfd7001464e42aa7d12289c83d0ad60568e6b244d72a86b00000ac64"},
		{9, 4, 13, "0c1249499716f21e095deac0d8d1c307e30a0675e5bc4ce3953c5ab7f2395f12"},
		{100, 4, 3, "9debaf39a6a53e501311ed7309705ff55a34200323e2d713714ae684652a8576"},
		{1000, 4, 11, "3718a31e11923f7c9da512adfdef94013a4c7697b2cc2a996d1257c33e7a433a"},
		{500, 8, 5, "6d6364a6ba6b6b8dbc7c9a0d5fb08e5df06d68f8dca1b46379f3e9cbf876d02d"},
		{10000, 8, 1, "18a9d30f8868744d2d19fb866b9bc3f452d1491851dfce70f9162866a5de1a4f"},
		{10000, 8, 42, "81e1b7f33b6e01aa355b6ab8b8bc11969eb3ab3a53d05935f987617d391f27ee"},
		{64, 16, 6, "9bcfe33a8c8e9ef8e30e48d33b72bdfa1501bf0a202a1a4588448e42d1259f83"},
		{200, 33, 8, "aad6757a3804e65ff00ce072c3d51a19879ae12c4aa808b8277047949dfb48d7"},
		{12, 10, 1, "2481f402fb30f5af062f65fb5989dc3f17b161340c058671ae0a7ac0375dfb58"},
		{4, 3, 1, "78d10b716e34d2738c4c726642c8f41e5bbe2fdee2478f23bc6daa84895948a2"},
		{5, 4, 3, "cfd7ed629579a31ba30d5f215653216cb780a48f6fdd8eee73271dd649b50b70"},
		{6, 5, 1, "error"},
		{8, 7, 2, "error"},
		{11, 10, 1, "error"},
		{30, 29, 4, "error"},
	}
	for _, c := range cases {
		got := "error"
		if g, err := NewRandomRegular(c.n, c.d, c.seed); err == nil {
			got = adjDigest(g)
		}
		if got != c.want {
			t.Errorf("NewRandomRegular(n=%d, d=%d, seed=%d) digest %s, want %s", c.n, c.d, c.seed, got, c.want)
		}
	}
}

// BenchmarkRandomRegularBuild times one construction of the served sparse
// graph (n = 10⁴, d = 8). CI's bench-smoke job caps its allocs/op.
func BenchmarkRandomRegularBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRandomRegular(10_000, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

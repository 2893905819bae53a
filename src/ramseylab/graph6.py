"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix, read
column by column ((0,1), (0,2), (1,2), (0,3), ...), into 6-bit groups
offset by 63.  Sizes up to 62 use a single leading byte; larger sizes
use a '~' prefix and an 18-bit size field, which covers this library's
64-vertex capacity.
"""

from __future__ import annotations

from .graphs import Graph, _check_order


def encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        bits.extend(1 if col & (1 << u) else 0 for u in range(v))
    while len(bits) % 6:
        bits.append(0)
    chunks = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chunks.append(chr(val + 63))
    return head + "".join(chunks)


def decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValueError("unsupported graph6 size prefix")
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    _check_order(n)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for c in body:
        val = ord(c) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 byte {c!r}")
        bits.extend((val >> s_) & 1 for s_ in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)

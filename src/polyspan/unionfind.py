"""Union-find over hashable keys, canonicalized by smallest representative."""

from __future__ import annotations

from typing import Hashable


class UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def add(self, x: Hashable) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: Hashable) -> Hashable:
        self.add(x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def unite(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def classes(self) -> list[list]:
        """Members sorted inside each class; classes ordered by smallest member."""
        groups: dict[Hashable, list] = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        out = [sorted(g) for g in groups.values()]
        out.sort()
        return out

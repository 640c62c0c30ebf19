"""The four benchmark workloads and their seeded inputs.

Every input matrix is written to a `--matrix-file` after a random
relabeling of its nodes; exchange matrices also get a random global sign.
Both operations leave every oracle value unchanged: a relabeled Cartan
matrix has the same Dynkin type, and negating an extended exchange matrix
swaps the two monomials of every exchange relation, so the seeds and the
cluster variables stay the same.

The Cartan matrices below are written out here, not taken from the
program, so a change to the program's own type table cannot change the
inputs.
"""

from __future__ import annotations

import json
import os
import random

WHY = {
    "exchange": "mutate on A5, B4, D5, F4 and B4 with principal coefficients:"
    " exchange-graph exploration and Laurent arithmetic, no Coxeter group",
    "polytope": "assoc on A5..E6 plus OFF/JSON exports and the E7 cluster complex:"
    " roots, compatibility, polytope solve and E6's w0, no Laurent arithmetic",
    "weyl": "group on E6, the A4 weak-order lattice check and catalan on B4, D4, F4:"
    " relations over the whole Weyl group, no Laurent arithmetic",
    "battery": "verify: the acceptance battery, the only path through polygon,"
    " wiring and cartan, and Laurent use beside exploration",
}

# a_ij = -m and a_ji = -1 for each bond (i, j, m); numbering follows the
# program's conventions (B: short root first; F4: the double bond points
# from node 2 to node 1; D and E branch at node 2).
BONDS = {
    "A": lambda n: [(i, i + 1, 1) for i in range(n - 1)],
    "B": lambda n: [(0, 1, 2)] + [(i, i + 1, 1) for i in range(1, n - 1)],
    "D": lambda n: [(0, 2, 1), (1, 2, 1)] + [(i, i + 1, 1) for i in range(2, n - 1)],
    "E": lambda n: [(i, i + 1, 1) for i in range(n - 2)] + [(2, n - 1, 1)],
    "F": lambda n: [(0, 1, 1), (2, 1, 2), (2, 3, 1)],
}


def cartan(name: str) -> list[list[int]]:
    letter, n = name[0], int(name[1:])
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, m in BONDS[letter](n):
        rows[i][j], rows[j][i] = -m, -1
    return rows


def exchange(name: str) -> list[list[int]]:
    """Bipartite exchange matrix: row i is +a_ij or -a_ij by the colour of
    node i in a two-colouring of the (tree-shaped) Dynkin diagram."""
    rows = cartan(name)
    n = len(rows)
    colour = {0: 1}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if rows[i][j] and j != i and j not in colour:
                colour[j] = -colour[i]
                stack.append(j)
    return [[0 if i == j else colour[i] * rows[i][j] for j in range(n)] for i in range(n)]


def relabel(rows: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Conjugate the square top block by `perm`; rows below it (frozen
    rows of an extended matrix) keep their order, their columns move."""
    n = len(perm)
    top = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return top + [[row[perm[j]] for j in range(n)] for row in rows[n:]]


class Inputs:
    """Writes one workload's matrix files and builds its task list."""

    def __init__(self, seed: int, directory: str):
        self.rng = random.Random(seed)
        self.directory = directory
        self.rng_seed = self.rng.randrange(1, 10**6)
        self.count = 0

    def _write(self, rows: list[list[int]]) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"m{self.count}.json")
        with open(path, "w") as handle:
            json.dump(rows, handle)
        return path

    def _perm(self, n: int) -> list[int]:
        perm = list(range(n))
        self.rng.shuffle(perm)
        return perm

    def cartan_file(self, name: str) -> str:
        rows = cartan(name)
        return self._write(relabel(rows, self._perm(len(rows))))

    def exchange_file(self, name: str, principal: bool = False) -> str:
        rows = exchange(name)
        n = len(rows)
        if principal:
            rows = rows + [[int(i == j) for j in range(n)] for i in range(n)]
        sign = self.rng.choice((1, -1))
        relabeled = relabel(rows, self._perm(n))
        return self._write([[sign * x for x in row] for row in relabeled])

    def cli(self, command: str, name: str, path: str, *extra: str) -> dict:
        argv = [command, "--matrix-file", path, *extra, "--rng-seed", str(self.rng_seed)]
        label = " ".join([command, name, *extra])
        return {"name": label, "argv": argv, "check": {"kind": command, "type": name}}


def build_tasks(workload: str, seed: int, directory: str) -> list[dict]:
    """The workload's tasks, in the order one pass runs them."""
    inputs = Inputs(seed, directory)
    tasks: list[dict] = []
    if workload == "exchange":
        for name in ("A5", "B4", "D5", "F4"):
            tasks.append(inputs.cli("mutate", name, inputs.exchange_file(name)))
        tasks.append(inputs.cli("mutate", "B4", inputs.exchange_file("B4", principal=True)))
        tasks[-1]["name"] += " principal"
    elif workload == "polytope":
        for name in ("A5", "B4", "D5", "F4", "E6"):
            tasks.append(inputs.cli("assoc", name, inputs.cartan_file(name)))
        tasks.append(inputs.cli("assoc", "A3", inputs.cartan_file("A3"), "--format", "off"))
        tasks.append(inputs.cli("assoc", "B3", inputs.cartan_file("B3"), "--format", "json"))
        tasks.append(
            {
                "name": "cluster_complex E7",
                "matrix_file": inputs.cartan_file("E7"),
                "check": {"kind": "complex", "type": "E7"},
            }
        )
    elif workload == "weyl":
        tasks.append(inputs.cli("group", "E6", inputs.cartan_file("E6")))
        tasks.append(inputs.cli("group", "A4", inputs.cartan_file("A4"), "--format", "dot"))
        for name in ("B4", "D4", "F4"):
            tasks.append(inputs.cli("catalan", name, inputs.cartan_file(name)))
    elif workload == "battery":
        argv = ["verify", "--quick", "--rng-seed", str(inputs.rng_seed)]
        tasks.append({"name": "verify --quick", "argv": argv, "check": {"kind": "verify"}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks

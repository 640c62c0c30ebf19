"""The benchmark's own oracle table and output checks.

The values come from the classification of finite root systems and the
enumerative results for cluster complexes (Fomin-Zelevinsky, Cluster
algebras II; Chapoton-Fomin-Zelevinsky), not from the program:

* `positive`: |Phi+|, which is also the length of w0;
* `order`: |W|;
* `seeds`: N(Phi), the number of seeds, clusters and complex facets;
* `h`: the h-vector of the cluster complex (the Narayana numbers of the
  type), and `f` its f-vector, which `f_from_h` must reproduce.

A cluster algebra of rank n has |Phi+| + n cluster variables.

Reduced-word counts of w0 are independent oracles only in type A
(Stanley's formula).  `SEED_REGRESSION` holds the counts for other types as
the program printed them when this benchmark was written; a mismatch there
means the output changed, not that it is known to be wrong.
"""

from __future__ import annotations

import json
import re
from math import comb, factorial

TYPES = {
    "A3": {"rank": 3, "positive": 6, "order": 24, "seeds": 14,
           "h": (1, 6, 6, 1), "f": (1, 9, 21, 14)},
    "A4": {"rank": 4, "positive": 10, "order": 120, "seeds": 42,
           "h": (1, 10, 20, 10, 1), "f": (1, 14, 56, 84, 42)},
    "A5": {"rank": 5, "positive": 15, "order": 720, "seeds": 132,
           "h": (1, 15, 50, 50, 15, 1), "f": (1, 20, 120, 300, 330, 132)},
    "B3": {"rank": 3, "positive": 9, "order": 48, "seeds": 20,
           "h": (1, 9, 9, 1), "f": (1, 12, 30, 20)},
    "B4": {"rank": 4, "positive": 16, "order": 384, "seeds": 70,
           "h": (1, 16, 36, 16, 1), "f": (1, 20, 90, 140, 70)},
    "D4": {"rank": 4, "positive": 12, "order": 192, "seeds": 50,
           "h": (1, 12, 24, 12, 1), "f": (1, 16, 66, 100, 50)},
    "D5": {"rank": 5, "positive": 20, "order": 1920, "seeds": 182,
           "h": (1, 20, 70, 70, 20, 1), "f": (1, 25, 160, 410, 455, 182)},
    "F4": {"rank": 4, "positive": 24, "order": 1152, "seeds": 105,
           "h": (1, 24, 55, 24, 1), "f": (1, 28, 133, 210, 105)},
    "E6": {"rank": 6, "positive": 36, "order": 51840, "seeds": 833,
           "h": (1, 36, 204, 351, 204, 36, 1),
           "f": (1, 42, 399, 1547, 2856, 2499, 833)},
    "E7": {"rank": 7, "positive": 63, "order": 2903040, "seeds": 4160,
           "h": (1, 63, 546, 1470, 1470, 546, 63, 1),
           "f": (1, 70, 945, 5180, 14105, 20202, 14560, 4160)},
}

# The weak order on W(A4): one Hasse node per element, and each element
# covers or is covered along each of its 4 generators, so |W| * 4 / 2 covers.
HASSE_A4 = {"nodes": 120, "covers": 240}

# OFF header of the A3 associahedron: vertices (clusters), faces
# (almost-positive roots), edges (clusters sharing all but one root).
OFF_A3_HEADER = "14 9 21"

BATTERY_SUMMARY = "13/13 criteria passed"

SEED_REGRESSION = {"reduced_words_of_w0": {"E6": 1266633313578528}}


def stanley_count(n: int) -> int:
    """Reduced words of w0 in A_n: (n(n+1)/2)! / prod (2k-1)^(n+1-k)."""
    denominator = 1
    for k in range(1, n + 1):
        denominator *= (2 * k - 1) ** (n + 1 - k)
    return factorial(n * (n + 1) // 2) // denominator


def f_from_h(h: tuple[int, ...]) -> tuple[int, ...]:
    """f_{k-1} = sum_i C(d - i, k - i) h_i for a (d-1)-dimensional complex."""
    d = len(h) - 1
    return tuple(sum(comb(d - i, k - i) * h[i] for i in range(k + 1)) for k in range(d + 1))


def variables(name: str) -> int:
    return TYPES[name]["positive"] + TYPES[name]["rank"]


def _expect_lines(text: str, expected: list[str]) -> str | None:
    lines = text.strip().splitlines()
    if lines != expected:
        return f"expected {expected}, got {lines[:len(expected) + 2]}"
    return None


def _check_mutate(name: str, text: str) -> str | None:
    return _expect_lines(text, [
        f"seeds {TYPES[name]['seeds']}",
        f"variables {variables(name)}",
        "closed True",
        f"detected {name}",
    ])


def _check_assoc_text(name: str, text: str) -> str | None:
    entry = TYPES[name]
    return _expect_lines(text, [
        f"type {name}",
        f"facets {entry['seeds']}",
        f"vertices {entry['seeds']}",
        "f_vector " + " ".join(map(str, entry["f"])),
        "h_vector " + " ".join(map(str, entry["h"])),
    ])


def _check_assoc(name: str, text: str, argv: list[str]) -> str | None:
    entry = TYPES[name]
    if "off" in argv:
        lines = text.strip().splitlines()
        vertices, faces, _ = map(int, OFF_A3_HEADER.split())
        if lines[:2] != ["OFF", OFF_A3_HEADER] or len(lines) != 2 + vertices + faces:
            return f"OFF header or length wrong: {lines[:2]}, {len(lines)} lines"
        return None
    if "json" in argv:
        try:
            data = json.loads(text)
            got = (len(data["facets"]), len(data["vertices"]), len(data["incidence"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON: {exc}"
        want = (variables(name), entry["seeds"], entry["seeds"])
        return None if got == want else f"facets/vertices/incidence {got}, expected {want}"
    return _check_assoc_text(name, text)


def _check_group(name: str, text: str, argv: list[str]) -> str | None:
    if "dot" in argv:
        nodes = len(re.findall(r"^  n\d+ \[label=", text, re.M))
        covers = len(re.findall(r"^  n\d+ -> n\d+ ", text, re.M))
        if not text.startswith("digraph weak_order {") or (nodes, covers) != (
            HASSE_A4["nodes"], HASSE_A4["covers"]
        ):
            return f"Hasse diagram has {nodes} nodes and {covers} covers"
        return None
    entry = TYPES[name]
    if name.startswith("A"):
        words = stanley_count(entry["rank"])
    else:
        words = SEED_REGRESSION["reduced_words_of_w0"][name]
    return _expect_lines(text, [
        f"type {name}",
        f"order {entry['order']}",
        f"longest_length {entry['positive']}",
        f"reduced_words_of_w0 {words}",
    ])


def _check_catalan(name: str, text: str) -> str | None:
    entry = TYPES[name]
    pattern = re.compile(rf"^{name} (\w+) k=(\w+) observed=(\d+) expected=(\d+) ok$")
    rows = [pattern.match(line) for line in text.strip().splitlines()]
    if not rows or not all(rows):
        return f"unexpected catalan line in {text[:200]!r}"
    for row in rows:
        _, k, observed, _ = row.groups()
        want = entry["seeds"] if k == "total" else entry["h"][int(k)]
        if int(observed) != want:
            return f"{row.group(0)}: expected {want}"
    profile = tuple(int(r.group(3)) for r in rows if r.group(1) == "antichains" and r.group(2) != "total")
    return None if profile == entry["h"] else f"antichain profile {profile}"


def _check_verify(text: str) -> str | None:
    lines = text.strip().splitlines()
    passes = sum(1 for line in lines if re.match(r"criterion \d\d \S+ +PASS ", line))
    if lines[-1:] != [BATTERY_SUMMARY] or passes != 13:
        return f"battery: {lines[-1:]} with {passes} PASS lines"
    return None


def check(task: dict, code, output) -> str | None:
    """None when the task's output matches the oracle, else the mismatch."""
    if code != 0:
        return f"exit code {code}"
    spec = task["check"]
    kind, name = spec["kind"], spec.get("type")
    argv = task.get("argv", [])
    if kind == "mutate":
        return _check_mutate(name, output)
    if kind == "assoc":
        return _check_assoc(name, output, argv)
    if kind == "group":
        return _check_group(name, output, argv)
    if kind == "catalan":
        return _check_catalan(name, output)
    if kind == "verify":
        return _check_verify(output)
    if kind == "complex":
        entry = TYPES[name]
        want = {"facets": entry["seeds"], "h_vector": list(entry["h"]), "f_vector": list(entry["f"])}
        return None if output == want else f"complex {output}, expected {want}"
    return f"unknown check kind {kind!r}"

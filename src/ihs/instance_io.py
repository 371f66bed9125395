"""Plain-text instance files.

Format::

    ihs-graph 1 <directed|undirected> <n> <m>
    u v                  (m edge or arc lines, decimal ids)
    planted <count> <ids...>                     (optional trailer)
    params [delta=<f>] [p=<f>] [k=<int>] [seed=<u64>]   (optional trailer)

Serialization is canonical (edges lexicographically sorted, single spaces,
keys in the fixed order above, trailing newline), so generate / parse / write
round-trips are byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .graphs import _CHUNK, Digraph, Graph, GraphError
from .models import ModelParams, memory_shortfall

MAGIC = "ihs-graph"
VERSION = "1"
_PARAM_KEYS = ("delta", "p", "k", "seed")


class InstanceFormatError(ValueError):
    """Unparseable or inconsistent instance file."""


@dataclass
class Instance:
    graph: Graph | Digraph  # its type is the kind in the header
    planted: list[int] | None = None
    params: ModelParams | None = None


def _format_float(x: float) -> str:
    return repr(float(x))


def _write(out, inst: Instance) -> None:
    """Write ``inst`` to the text stream ``out``, its pair lines a slice at a time."""
    g = inst.graph
    directed = isinstance(g, Digraph)
    pairs = g.arc_list if directed else g.edge_list
    kind = "directed" if directed else "undirected"
    out.write(f"{MAGIC} {VERSION} {kind} {g.n} {pairs.shape[0]}\n")
    for s in range(0, pairs.shape[0], _CHUNK):
        out.write("".join(f"{u} {v}\n" for u, v in pairs[s:s + _CHUNK].tolist()))
    if inst.planted is not None:
        ids = " ".join(str(v) for v in sorted(inst.planted))
        out.write(f"planted {len(inst.planted)}{ ' ' + ids if ids else ''}\n")
    if inst.params is not None:
        p = inst.params
        fields = []
        if p.delta is not None:
            fields.append(f"delta={_format_float(p.delta)}")
        fields.append(f"p={_format_float(p.p)}")
        if p.k is not None:
            fields.append(f"k={p.k}")
        fields.append(f"seed={p.seed}")
        out.write("params " + " ".join(fields) + "\n")


def write_instance(path: str | Path, inst: Instance) -> None:
    with open(path, "w") as fh:
        _write(fh, inst)


def _read_pairs(lines: Iterator[str], m: int) -> np.ndarray:
    """The ``m`` edge lines after the header, a slice of lines at a time."""
    pairs = np.empty((m, 2), dtype=np.int64)
    for s in range(0, m, _CHUNK):
        want = min(_CHUNK, m - s)
        chunk = list(itertools.islice(lines, want))
        if len(chunk) < want:
            raise InstanceFormatError(f"expected {m} edge lines, found {s + len(chunk)}")
        for i, line in enumerate(chunk, s):
            try:
                u, v = map(int, line.split())
                pairs[i] = u, v
            except (ValueError, OverflowError) as exc:
                line = line.rstrip("\n")
                raise InstanceFormatError(f"bad edge line {i + 2}: {line!r}") from exc
    return pairs


def _parse(lines: Iterator[str]) -> Instance:
    """Read an instance from ``lines``, an iterator of text lines such as an open file."""
    header = next(lines, None)
    if header is None:
        raise InstanceFormatError("empty file")
    header = header.rstrip("\n")
    head = header.split()
    if len(head) != 5 or head[0] != MAGIC or head[1] != VERSION:
        raise InstanceFormatError(f"bad header: {header!r}")
    kind = head[2]
    if kind not in ("directed", "undirected"):
        raise InstanceFormatError(f"unknown graph kind {kind!r}")
    try:
        n = int(head[3])
        m = int(head[4])
    except ValueError as exc:
        raise InstanceFormatError(f"bad header counts: {header!r}") from exc
    if n < 0 or m < 0:
        raise InstanceFormatError(f"negative header counts: {header!r}")
    # checked before anything is allocated, with the estimate of the generators
    short = memory_shortfall("dnp" if kind == "directed" else "gnp", m, n)
    if short:
        raise InstanceFormatError(f"a {kind} instance with n={n}, m={m} {short}")
    pairs = _read_pairs(lines, m)

    planted: list[int] | None = None
    params: ModelParams | None = None
    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "planted":
            if planted is not None:
                raise InstanceFormatError("duplicate planted trailer")
            try:
                count = int(parts[1])
                planted = [int(x) for x in parts[2:]]
            except (IndexError, ValueError) as exc:
                raise InstanceFormatError(f"bad planted trailer: {line!r}") from exc
            if len(planted) != count:
                raise InstanceFormatError(
                    f"planted trailer announces {count} ids but carries {len(planted)}"
                )
            if planted and (min(planted) < 0 or max(planted) >= n):
                raise InstanceFormatError("planted id out of range")
            if len(set(planted)) != len(planted):
                raise InstanceFormatError("duplicate planted id")
        elif parts[0] == "params":
            if params is not None:
                raise InstanceFormatError("duplicate params trailer")
            kv: dict[str, str] = {}
            for item in parts[1:]:
                if "=" not in item:
                    raise InstanceFormatError(f"bad params entry: {item!r}")
                key, value = item.split("=", 1)
                if key not in _PARAM_KEYS or key in kv:
                    raise InstanceFormatError(f"bad params key: {key!r}")
                kv[key] = value
            try:
                params = ModelParams(
                    n=n,
                    p=float(kv.get("p", "0")),
                    delta=float(kv["delta"]) if "delta" in kv else None,
                    k=int(kv["k"]) if "k" in kv else None,
                    seed=int(kv.get("seed", "0")),
                )
            except ValueError as exc:
                raise InstanceFormatError(f"bad params trailer {line!r}: {exc}") from exc
        else:
            raise InstanceFormatError(f"unexpected trailer line: {line!r}")

    try:
        graph: Graph | Digraph = Digraph(n, pairs) if kind == "directed" else Graph(n, pairs)
    except GraphError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return Instance(graph=graph, planted=planted, params=params)


def read_instance(path: str | Path) -> Instance:
    with open(path) as fh:
        return _parse(fh)

"""Plain-text edge-list persistence.

Format: a header line ``n m`` followed by ``m`` lines ``u v`` with
``u < v``.  Lines starting with ``#`` are comments.  The format is chosen
for interoperability: it round-trips through this module and loads directly
into networkx / SNAP-style tooling.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Tuple, Union

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

PathLike = Union[str, Path]


def _parse_int(token: str, kind: str, line: str) -> int:
    """Parse one numeric token; all format failures report uniformly.

    Without this wrapper a malformed token (e.g. ``"3 x"``) escapes as a
    bare ``ValueError`` from ``int()`` instead of the :class:`GraphError`
    every other file-format problem raises.
    """
    try:
        return int(token)
    except ValueError:
        raise GraphError(
            f"bad {kind} token {token!r} in line: {line!r}"
        ) from None


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in header + edge-list format."""
    target = Path(path)
    with target.open("w", encoding="ascii") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def stream_edge_list(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Stream a graph file in constant memory.

    Yields the header ``(n, m)`` first, then one ``(u, v)`` pair per edge
    line, as written — duplicates and both orientations included, because
    deduplication requires memory and belongs to the consumer (the
    in-memory builder, or the per-shard finalize of
    :func:`repro.graph.stream.shard_edge_list`).  Validation happens as
    lines are read: malformed headers/edges, a negative header count and
    out-of-range endpoints raise :class:`GraphError` with the same
    messages as the in-memory reader, and a file without a header raises
    once the stream is consumed.
    """
    source = Path(path)
    header = None
    with source.open("r", encoding="ascii") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise GraphError(f"bad header line: {line!r}")
                header = (
                    _parse_int(parts[0], "header", line),
                    _parse_int(parts[1], "header", line),
                )
                if min(header) < 0:
                    raise GraphError(
                        f"header counts must be non-negative: {line!r}"
                    )
                yield header
                continue
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {line!r}")
            u = _parse_int(parts[0], "edge", line)
            v = _parse_int(parts[1], "edge", line)
            for endpoint in (u, v):
                if endpoint < 0:
                    raise GraphError(
                        f"vertex ids must be non-negative, got {endpoint}"
                    )
            if u >= header[0] or v >= header[0]:
                raise GraphError(
                    f"edge endpoints exceed declared n={header[0]} in {source}"
                )
            yield (u, v)
    if header is None:
        raise GraphError(f"no header found in {source}")


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Tolerates comment lines and both edge orientations; validates the
    header's vertex count and edge count.  Built on
    :func:`stream_edge_list`, and materializes exactly one :class:`Graph`:
    the builder is seeded with the header's ``n``, so isolated vertices
    survive without the old rebuild-via-``Graph.from_edges`` pass that
    doubled peak memory.
    """
    stream = stream_edge_list(path)
    num_vertices, declared_edges = next(stream)
    builder = GraphBuilder(num_vertices)
    for u, v in stream:
        builder.add_edge(u, v)
    graph = builder.build()
    if graph.num_edges != declared_edges:
        raise GraphError(
            f"declared m={declared_edges} but read {graph.num_edges} edges"
        )
    return graph

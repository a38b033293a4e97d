"""Whole-graph capture/replay through the POISETRC trace codec.

A captured :class:`~repro.workloads.graph.KernelGraph` becomes a directory:
one ``.trc`` file per node (the node's warp programs, POISETRC format) plus
a ``graph.json`` manifest recording the node order, the dependency edges
and each trace's content hash.  ``load_graph_trace`` rebuilds the graph as
file-backed ``TraceKernelSpec`` nodes — warps issue their programs in
order, so replaying it through ``GPU.run_graph`` on any configuration
reproduces the original graph's schedule and counters bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.trace.adapter import trace_kernel_from_file
from repro.trace.codec import TRACE_SUFFIX, TraceFormatError, write_trace
from repro.workloads.generator import generate_kernel_programs
from repro.workloads.graph import GraphError, KernelGraph

#: Manifest filename and format tag inside a graph-trace directory.
GRAPH_MANIFEST = "graph.json"
GRAPH_FORMAT = "poisetrc-graph/1"


def capture_graph_to_dir(graph: KernelGraph, out_dir: Union[str, Path]) -> Path:
    """Write ``graph`` as a graph-trace directory; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    nodes = []
    for node in graph.nodes:
        filename = f"{node.name}{TRACE_SUFFIX}"
        programs = generate_kernel_programs(node)
        content_hash = write_trace(
            out_dir / filename,
            programs,
            meta={
                "kernel": node.name,
                "source": "capture",
                "num_warps": len(programs),
                "graph": graph.name,
            },
        )
        nodes.append(
            {
                "name": node.name,
                "trace": filename,
                "trace_hash": content_hash,
                "num_warps": node.num_warps,
            }
        )
    manifest = {
        "format": GRAPH_FORMAT,
        "name": graph.name,
        "nodes": nodes,
        "edges": [list(edge) for edge in graph.edges],
    }
    manifest_path = out_dir / GRAPH_MANIFEST
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_graph_trace(trace_dir: Union[str, Path], verify: bool = True) -> KernelGraph:
    """Rebuild a :class:`KernelGraph` of file-backed trace kernels from a
    graph-trace directory written by :func:`capture_graph_to_dir`.

    With ``verify=True`` each node trace is decoded once to validate it and
    its content hash is checked against the manifest, so a swapped or
    damaged file can never silently replay as the wrong graph.
    """
    trace_dir = Path(trace_dir)
    manifest_path = trace_dir / GRAPH_MANIFEST
    if not manifest_path.exists():
        raise TraceFormatError(f"{trace_dir} has no {GRAPH_MANIFEST} manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as error:
        raise TraceFormatError(f"unreadable graph manifest {manifest_path}: {error}") from None
    if manifest.get("format") != GRAPH_FORMAT:
        raise TraceFormatError(
            f"{manifest_path} has format {manifest.get('format')!r}; expected {GRAPH_FORMAT!r}"
        )
    nodes = []
    for entry in manifest.get("nodes", []):
        spec = trace_kernel_from_file(
            trace_dir / entry["trace"], name=entry["name"], verify=verify
        )
        expected = entry.get("trace_hash", "")
        if expected and spec.trace_hash and spec.trace_hash != expected:
            raise TraceFormatError(
                f"graph node {entry['name']!r}: trace hash {spec.trace_hash[:16]}… does "
                f"not match the manifest's {expected[:16]}… — the file was replaced"
            )
        if expected and not spec.trace_hash:
            # verify=False leaves the spec hash empty; pin the manifest's so
            # replay still fails loudly on a swapped file.
            from dataclasses import replace

            spec = replace(spec, trace_hash=expected)
        nodes.append(spec)
    edges = tuple((src, dst) for src, dst in manifest.get("edges", []))
    try:
        return KernelGraph(
            nodes=tuple(nodes), edges=edges, name=manifest.get("name", "graph")
        )
    except GraphError as error:
        raise TraceFormatError(f"invalid graph manifest {manifest_path}: {error}") from None

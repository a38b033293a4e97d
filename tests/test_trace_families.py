"""The trace families as lazily filled per-warp streams.

Each family's programs must equal the eager builders in
:mod:`family_oracle` (the reference), per-warp lengths and instructions
alike, over a grid of geometries, warp counts, group sizes and budgets —
including ``treereduce`` trees with more warps than pairs (zero-length
warps) and budgets that cut a load group short.  Around that: the streams
are built only as far as they are read, ``len()`` builds nothing, a bad
geometry fails before any stream exists, and ``fill_programs`` fills family
programs to their end.
"""

from __future__ import annotations

from typing import List

import pytest

from family_oracle import EAGER_BUILDERS
from repro.trace.adapter import TraceKernelSpec
from repro.trace.families import build_trace_benchmarks, family_kernel, family_names, generate_family_programs
from repro.workloads.generator import FILL_CHUNK, WarpProgram, fill_programs

#: Per-family geometries: the registered defaults plus degenerate and
#: ragged shapes (single-line rows, tiles that overhang the matrix, a
#: two-line chase table, odd phase lengths).
GEOMETRIES = [
    ("stencil", (("rows_per_warp", 4), ("width", 96))),
    ("stencil", (("width", 1),)),
    ("stencil", (("col_stride", 2), ("rows_per_warp", 0), ("width", 5))),
    ("transpose", (("matrix_lines", 64), ("tile", 8))),
    ("transpose", (("matrix_lines", 10), ("tile", 3))),
    ("transpose", (("matrix_lines", 1),)),
    ("transpose", (("matrix_lines", 16), ("tile", 32))),
    ("gather", (("table_lines", 4096),)),
    ("gather", (("chase_stride", 3), ("table_lines", 2))),
    ("treereduce", (("leaves", 2),)),
    ("treereduce", (("leaves", 3),)),
    ("treereduce", (("leaves", 1000),)),
    ("phasemix", (("phase_len", 8),)),
    ("phasemix", (("phase_len", 9),)),
    ("phasemix", (("phase_len", 600),)),
]


def _spec(family, params=(), budget=6000, num_warps=3, per_load=3, seed=7) -> TraceKernelSpec:
    return family_kernel(
        family,
        num_warps=num_warps,
        instructions_per_warp=budget,
        instructions_per_load=per_load,
        seed=seed,
        private_lines=40,
        params=params,
    )


def _grid() -> List[TraceKernelSpec]:
    specs = []
    # Every family: budgets of one instruction, one that cuts a load group
    # short, and several fill chunks; group sizes 1 (loads only) to 4.
    for family, params in GEOMETRIES:
        for budget in (1, 7, 1000):
            for num_warps, per_load in ((1, 1), (3, 3), (5, 4)):
                specs.append(_spec(family, params, budget, num_warps, per_load))
    # treereduce: trees from one pair up, warp counts past leaves / 2 (so
    # some warps get no pair at all), and a budget above every warp's share.
    for leaves in (2, 3, 1000, 16384):
        for num_warps in (1, 24, 600):
            for budget in (1, 7, 100_000):
                for per_load in (1, 3):
                    specs.append(
                        _spec("treereduce", (("leaves", leaves),), budget, num_warps, per_load)
                    )
    # Long streams, far past the default budget.
    for family in family_names():
        specs.append(_spec(family, budget=100_000, num_warps=1, seed=11))
    return specs


def _case_id(spec: TraceKernelSpec) -> str:
    params = ",".join(f"{key}={value}" for key, value in spec.params)
    return (
        f"{spec.family}[{params}]-n{spec.instructions_per_warp}"
        f"-w{spec.num_warps}-g{spec.instructions_per_load}"
    )


def assert_matches_oracle(spec: TraceKernelSpec) -> None:
    programs = generate_family_programs(spec)
    expected = EAGER_BUILDERS[spec.family](spec)
    assert all(isinstance(program, WarpProgram) for program in programs)
    assert [len(program) for program in programs] == [len(program) for program in expected]
    assert all(program.filled == [] for program in programs)  # len() built nothing
    for program, reference in zip(programs, expected):
        assert program == reference
        assert program.filled == reference


@pytest.mark.parametrize("spec", _grid(), ids=_case_id)
def test_lazy_family_programs_match_the_eager_builders(spec):
    assert_matches_oracle(spec)


@pytest.mark.parametrize(
    "spec", [benchmark.kernels[0] for benchmark in build_trace_benchmarks()], ids=_case_id
)
def test_registered_family_kernels_match_the_eager_builders(spec):
    assert_matches_oracle(spec)


def test_treereduce_warps_past_the_tree_are_empty():
    spec = _spec("treereduce", (("leaves", 8),), budget=100, num_warps=6, per_load=3)
    # Phases pair 4, 2 and 1 times: warps 0-3 combine at least once.
    assert [len(program) for program in generate_family_programs(spec)] == [
        3 * 4, 2 * 4, 4, 4, 0, 0,
    ]


@pytest.mark.parametrize("family", sorted(family_names()))
def test_a_read_builds_only_the_chunk_it_reaches(family):
    programs = generate_family_programs(family_kernel(family))
    programs[0][700]
    assert len(programs[0].filled) <= (700 // FILL_CHUNK + 1) * FILL_CHUNK
    assert all(program.filled == [] for program in programs[1:])


def test_treereduce_length_builds_nothing():
    programs = generate_family_programs(family_kernel("treereduce", params=(("leaves", 16384),)))
    assert sum(len(program) for program in programs) > 0
    assert all(len(program.filled) == 0 for program in programs)


@pytest.mark.parametrize("family", sorted(family_names()))
def test_fill_programs_fills_family_programs_to_their_end(family):
    programs = generate_family_programs(_spec(family, budget=600, num_warps=4))
    fill_programs(programs)
    assert all(len(program.filled) == len(program) for program in programs)


@pytest.mark.parametrize(
    "family, params",
    [
        ("transpose", (("matrix_lines", 0),)),
        ("transpose", (("matrix_lines", -3),)),
        ("stencil", (("width", 0),)),
        ("stencil", (("width", -4),)),
    ],
)
def test_a_malformed_geometry_fails_before_any_stream_exists(family, params):
    with pytest.raises(ValueError, match=params[0][0]):
        generate_family_programs(family_kernel(family, params=params))

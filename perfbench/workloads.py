"""The benchmark's workloads: the ops each one runs, in a fixed order,
and the seeded generator of point queries.

Every end-to-end metric must exist on every workload, so each workload
runs its own ops (the `main` list, which alone feeds `wall_s` and
`peak_rss_mb`) and then, in the same process, small `probes` of the
ops it does not stress.  Probes are skipped in traced runs, so the
per-layer numbers describe the main ops only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

QUERY_OPS = ("dyck_succ", "dyck_pred", "classify", "level_index")
CACHE_DIR = "{cache}"  # replaced by a fresh directory for each process


@dataclass(frozen=True)
class CliOp:
    """One `dycknums.cli.main(argv)` call.  `metric` names the end-to-end
    metric its time feeds (None: only `wall_s`); `check` says how its
    output is verified, as (kind, parameter)."""

    metric: str | None
    argv: tuple[str, ...]
    check: tuple[str, object]


@dataclass(frozen=True)
class QueryOp:
    """A closed loop of `count` point queries through the package's
    public API, one caller.  `boundary_repeats` copies of succ(M_n) and
    pred(succ(M_n)) for every n in [n_min, n_max] are mixed in."""

    count: int
    n_min: int
    n_max: int
    boundary_repeats: int


@dataclass(frozen=True)
class Workload:
    main: tuple[CliOp | QueryOp, ...]
    probes: tuple[CliOp | QueryOp, ...]


def generate_ops(level: int, core: int, count: int, check: int, cache: int,
                 decompose: int) -> tuple[CliOp, ...]:
    cached = ("gen", "--core", str(cache), "--cache-dir", CACHE_DIR)
    return (
        CliOp("gen_level_s", ("gen", "--level", str(level)), ("level", level)),
        CliOp("gen_core_s", ("gen", "--core", str(core)), ("core", core)),
        CliOp("gen_stream_s", ("gen", "--count", str(count)), ("stream", count)),
        CliOp("gen_check_s", ("gen", "--level", str(check), "--check"), ("checked", check)),
        CliOp("cache_write_s", cached, ("core", cache)),
        CliOp("cache_read_s", cached, ("same_as", "cache_write_s")),
        CliOp("decompose_s", ("decompose", "--core", str(decompose)), ("digest", decompose)),
    )


HARNESS_MAX_N = 24
GENERATE_PROBES = generate_ops(22, 22, 300_000, 20, 22, 20)
QUERY_PROBE = QueryOp(1000, 20, 26, 4)

WORKLOADS = {
    "harness": Workload(
        main=(CliOp(None, ("verify", "all", "--max-n", str(HARNESS_MAX_N), "--offline"),
                    ("harness", HARNESS_MAX_N)),),
        probes=GENERATE_PROBES + (QUERY_PROBE,),
    ),
    "generate": Workload(
        main=generate_ops(26, 26, 2_000_000, 22, 24, 24),
        probes=(QUERY_PROBE,),
    ),
    "query": Workload(
        main=(QueryOp(4000, 20, 34, 7),),
        probes=GENERATE_PROBES,
    ),
}


def random_term(rng: random.Random, nbits: int) -> int:
    """A random term of exactly `nbits` bits, built from the low bit up:
    a bit is a coin flip while the balance of the bits below it is
    positive and 1 otherwise, and the leading bit is 1."""
    value, balance = 0, 0
    for i in range(nbits - 1):
        bit = 1 if balance == 0 else rng.getrandbits(1)
        value |= bit << i
        balance += 1 if bit else -1
    return value | (1 << (nbits - 1))


def make_queries(spec: QueryOp, seed: int, rep: int) -> list[tuple[str, int, int | None]]:
    """(op, term, n) triples in a seeded order; n is set only for the
    Mersenne-boundary cases, whose answers have closed forms."""
    rng = random.Random(f"{seed}/{rep}")
    queries: list[tuple[str, int, int | None]] = []
    for n in range(spec.n_min, spec.n_max + 1):
        mersenne = (1 << n) - 1
        jump = mersenne + (1 << ((n + 1) // 2))
        queries += [("dyck_succ", mersenne, n), ("dyck_pred", jump, n)] * spec.boundary_repeats
    while len(queries) < spec.count:
        queries.append((rng.choice(QUERY_OPS), random_term(rng, rng.randint(16, 64)), None))
    rng.shuffle(queries)
    return queries

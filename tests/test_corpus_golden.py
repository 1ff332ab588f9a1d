"""Golden bodies of the five corpus laws on a seeded slice of the corpus.

The bodies were recorded before the kernel compiled dense polynomials from
their exponents, derived leading forms and homogenizations in one pass, and
kept the zeros' digits on the walk memo; every report must read the same.
To re-record them from the checked-out code (only when a body is meant to
change): PYTHONPATH=src python tests/test_corpus_golden.py
"""

from pathlib import Path

from cwlab.constructions import corpus_system
from cwlab.counting import counts_over_parallel_class
from cwlab.laws import check_congruence, homogenization_identity, lower_bound_audit
from cwlab.rng import SplitMix64
from cwlab.subspaces import AffineSubspace, rref

GOLDEN = Path(__file__).with_name("corpus_laws_golden.txt")
SEED, SYSTEMS = 21, 60


def corpus_law_bodies(seed: int = SEED, count: int = SYSTEMS) -> list[str]:
    """For corpus systems 0 .. count - 1 of the seed, each with a seeded
    direction space of dimension at most d, five lines: the Chevalley, Ax,
    homogenization-identity and lower-bound bodies, and the parallel class
    as 'offset:count' words in member order (every q here is below 10)."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        system = corpus_system(seed, i)
        F, n, d = system.field, system.nvars, system.total_degree
        rows, _ = rref(F, [[rng.below(F.q) for _ in range(n)] for _ in range(d)])
        L = AffineSubspace(F, (0,) * n, rows)
        members = counts_over_parallel_class(system, L)
        out += [
            check_congruence(system, "chevalley").to_json(),
            check_congruence(system, "ax").to_json(),
            homogenization_identity(system).to_json(),
            lower_bound_audit(system).to_json(),
            " ".join(f"{''.join(map(str, m.offset))}:{c}" for m, c in members),
        ]
    return out


def test_corpus_law_bodies_match_the_recorded_ones():
    want = GOLDEN.read_text().splitlines()
    got = corpus_law_bodies()
    assert len(got) == len(want) == 5 * SYSTEMS
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, (i // 5, i % 5)


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in corpus_law_bodies()))

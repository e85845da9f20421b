"""The benchmark's four workloads.

A workload builds its inputs from the run's seed when it is constructed
(set-up), warms up on inputs of its own, and then hands out passes.  Set-up
calls ``tick`` after each of its steps, so that the run can time it in
segments.  A pass
is a fixed list of operations over inputs that no earlier pass used, so a
cache inside the library only gains where inputs share work, as they do in
real sweeps.  Every operation calls the library through module attributes
(``containers.container_pair``, not an imported name), so the tracer's
rebinding reaches the benchmark's own calls too.

Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import shutil
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np
from posetfree import census, cli, containers, lattice
from posetfree.fixtures import fixture
from posetfree.lattice import SetFamily
from posetfree.poset import poset_to_dict

import oracles


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` and ``record`` are not.

    ``check`` says whether the output is right; ``record`` gives a JSON
    value for the output digest.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    record: Callable[[object], object]


def subseed(seed: int, *parts: int) -> int:
    """A 64-bit seed for one input, derived from the run's seed."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------ carving ---

# Criterion 5's sweep: (poset, blowup root, cube dimension).
CARVE_CONFIGS = (
    ("chain2", 0, 6),
    ("chain3", 0, 6),
    ("v", 0, 6),
    ("x", 2, 6),
    ("path4", 0, 5),
)
# Carving costs hardly change under relabelling, so the base families set
# how much the inputs of a run vary.  With 24, op_p50_ms on carve-wide
# spread by 0.10 (IQR over median) over ten seeds.
BASE_FAMILIES = 48
WARM = 1 << 30  # sub-seed offset of warm-up inputs
# Passes whose outputs get the costly checks: maximality of greedy
# families, and brute force over all n! chains at n = 8.
EXACT_PASSES = 2


def relabel(family: SetFamily, perm: tuple[int, ...]) -> SetFamily:
    """The image of a family under a permutation of the ground set.

    Inclusion is preserved, so a P-free family stays P-free.  The greedy
    generator's output has a permutation-invariant distribution, so the
    images are further draws from it that cost no search to make.
    """
    table = []
    for mask in range(1 << family.n):
        image = 0
        for i, j in enumerate(perm):
            if mask >> i & 1:
                image |= 1 << j
        table.append(image)
    return SetFamily.from_masks(family.n, (table[m] for m in family.members))


class Carve:
    """``container_pair`` then ``verify_pair`` per family, at t = n or 2.

    A round takes one family per config; round r of config c is base
    family r mod 48 relabelled by the (r div 48)-th of a seeded shuffle of
    the permutations of [n], so no family repeats within a run.
    """

    def __init__(self, seed: int, wide: bool, tick: Callable[[], None]):
        self.rounds = 10 if wide else 40
        self.configs = []
        self.residual_of: dict[tuple, tuple] = {}
        for c, (name, root, n) in enumerate(CARVE_CONFIGS):
            poset = fixture(name)
            base = [
                census.random_p_free_family(poset, n, seed=subseed(seed, c, i))
                for i in range(BASE_FAMILIES)
            ]
            tick()
            perms = list(itertools.permutations(range(n)))
            shuffle = np.random.Generator(np.random.Philox(subseed(seed, c, WARM + 1)))
            order = shuffle.permutation(len(perms))
            self.configs.append(
                (poset, root, n if wide else 2, SetFamily(n, tuple(range(1 << n))),
                 base, [perms[int(i)] for i in order])
            )
        self.input_digest = digest([
            [list(f.members) for f in base] + [list(perms[:4])]
            for _, _, _, _, base, perms in self.configs
        ])
        for c, (name, _, n) in enumerate(CARVE_CONFIGS):
            warm = census.random_p_free_family(self.configs[c][0], n, seed=subseed(seed, c, WARM))
            self._op(c, warm).run()
            tick()

    def _op(self, c: int, family: SetFamily) -> Op:
        poset, root, t, source, _, _ = self.configs[c]

        def run():
            pair = containers.container_pair(poset, root, t, source, family)
            return pair, containers.verify_pair(pair, family)

        def check(out) -> bool:
            pair, verdict = out
            key = (c, pair.certificate.members)
            residual = self.residual_of.setdefault(key, pair.residual.members)
            return all(verdict.values()) and residual == pair.residual.members

        def record(out):
            pair, _ = out
            return [c, pair.certificate.members, pair.residual.members,
                    pair.prune_count, pair.carve_count]

        return Op(CARVE_CONFIGS[c][0], run, check, record)

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        for r in range(k * self.rounds, (k + 1) * self.rounds):
            for c, (_, _, _, _, base, perms) in enumerate(self.configs):
                perm = perms[(r // len(base)) % len(perms)]
                ops.append(self._op(c, relabel(base[r % len(base)], perm)))
        return ops

    def close(self) -> None:
        pass


# ------------------------------------------------------------- census ---

# Exact counts of P-free families.  Counting chain2-free families over [5]
# (7581, the Dedekind number M(5)) takes 2.4 s, as long as the rest of a
# pass; it is checked in test_perfbench.py instead, so that a run holds
# twice as many passes, over which wall_s takes its median.
COUNTS = (("chain2", 4, 168), ("chain3", 4, 3938), ("v", 4, 1447))
DEDEKIND_M5 = ("chain2", 5, 7581)
# Largest P-free families of non-chain posets over [4], as the exhaustive
# search returned them when the benchmark was written.
LA_OTHERS = (("v", 4, 7), ("path4", 4, 8), ("x", 4, 12), ("butterfly", 4, 10))
LA_CHAINS = tuple((f"chain{k}", n) for n in (4, 6) for k in range(2, 6))
# Experiment rows of V over [2] and [3]: count, la and layer lower bound.
EXPERIMENT = {2: (12, 3, 4), 3: (71, 4, 8)}
EXPERIMENT_HEADER = [
    "n", "count", "la", "lower_bound", "distinct_pairs", "max_residual_size",
    "max_residual_normalized", "upper_expression",
]
SAMPLES = 20
# Greedy generation: (poset, n), seven seeds each per pass.  With these 28
# operations a pass holds 44, and the 90th percentile of latency falls
# among the la calls for path4 and X, which take the same time, not between
# two groups of unlike operations.
GREEDY = (("chain2", 7), ("chain3", 7), ("v", 7), ("x", 6))
GREEDY_PER_PASS = 7


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Census:
    """``census count``, ``census la`` and ``census experiment`` through
    ``cli.main``, plus greedy ``random_p_free_family`` calls."""

    def __init__(self, seed: int, workdir: Path, tick: Callable[[], None]):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        names = {name for name, *_ in COUNTS + LA_OTHERS + LA_CHAINS} | {"v"}
        self.files = {}
        for name in sorted(names):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(poset_to_dict(fixture(name))))
            self.files[name] = str(path)
        self.posets = {name: fixture(name) for name, _ in GREEDY}
        self.input_digest = digest(
            [[name, Path(path).read_text()] for name, path in self.files.items()]
            + [self._experiment_seed(0)]
            + [self._greedy_seed(0, g, i) for g in range(len(GREEDY))
               for i in range(GREEDY_PER_PASS)]
        )
        tick()
        # warm-up: one small operation of every kind
        run_cli(["census", "count", "--poset", self.files["chain3"], "--n", "3"])
        tick()
        run_cli(["census", "la", "--poset", self.files["v"], "--n", "3"])
        tick()
        run_cli(["census", "experiment", "--poset", self.files["v"], "--n", "2",
                 "--seed", str(self._experiment_seed(WARM)), "--samples", "2"])
        tick()
        census.random_p_free_family(self.posets["chain3"], 5, seed=subseed(seed, WARM))
        tick()

    def _cli_op(self, command: str, name: str, n: int, want: str) -> Op:
        argv = ["census", command, "--poset", self.files[name], "--n", str(n)]
        return Op(
            f"census {command} {name} {n}",
            lambda: run_cli(argv),
            lambda out: out == (0, want, ""),
            lambda out: list(out),
        )

    def _experiment_seed(self, k: int) -> int:
        return subseed(self.seed, k, WARM) % 10**6

    def _greedy_seed(self, k: int, g: int, i: int) -> int:
        return subseed(self.seed, k, g, i)

    def _experiment_op(self, k: int) -> Op:
        argv = ["census", "experiment", "--poset", self.files["v"], "--n", "2,3",
                "--seed", str(self._experiment_seed(k)), "--samples", str(SAMPLES)]

        def check(out) -> bool:
            code, text, err = out
            rows = list(csv.reader(io.StringIO(text)))
            if code or err or rows[0] != EXPERIMENT_HEADER or len(rows) != 3:
                return False
            for row in rows[1:]:
                n, count, la, bound, pairs, resid, norm, upper = row
                if tuple(map(int, (count, la, bound))) != EXPERIMENT[int(n)]:
                    return False
                if not 1 <= int(pairs) <= SAMPLES:
                    return False
                if norm != repr(int(resid) / comb(int(n), int(n) // 2)):
                    return False
                if int(upper) != int(pairs) << int(resid):
                    return False
            return True

        return Op("census experiment", lambda: run_cli(argv), check, lambda out: list(out))

    def _greedy_op(self, k: int, name: str, n: int, seed: int) -> Op:
        poset = self.posets[name]
        below = oracles.order_below(poset.m, poset.covers)
        order = oracles.linear_extension(poset.m, below)

        def check(family) -> bool:
            members = family.members
            if family.n != n or oracles.contains(members, poset.m, below, order):
                return False
            if k >= EXACT_PASSES:
                return True
            others = sorted(set(range(1 << n)) - set(members))
            return all(
                oracles.contains(members + (mask,), poset.m, below, order)
                for mask in others
            )

        return Op(
            f"random_p_free_family {name} {n}",
            lambda: census.random_p_free_family(poset, n, seed=seed),
            check,
            lambda family: list(family.members),
        )

    def pass_ops(self, k: int) -> list[Op]:
        ops = [self._cli_op("count", name, n, f"{want}\n") for name, n, want in COUNTS]
        ops += [self._cli_op("la", name, n, f"{want}\n") for name, n, want in LA_OTHERS]
        ops += [
            self._cli_op("la", name, n, f"{oracles.la_chain(n, int(name[5:]))}\n")
            for name, n in LA_CHAINS
        ]
        ops.append(self._experiment_op(k))
        ops += [
            self._greedy_op(k, name, n, self._greedy_seed(k, g, i))
            for g, (name, n) in enumerate(GREEDY)
            for i in range(GREEDY_PER_PASS)
        ]
        return ops

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ------------------------------------------------------------- chains ---

# One family per entry.  This mix puts the median operation latency among
# the (3, 1) calls at n = 9 and the 90th percentile among the (2, 1) and
# (2, 2) calls at n = 12: inside groups of alike calls, not at an edge
# between two unlike groups, where a percentile jumps from run to run.
# The first family (n = 8) is checked by brute force in the first passes.
CHAIN_NS = (8, 9, 9, 9, 9, 10, 11, 12, 12)
MARKS = ((2, 1), (2, 2), (3, 1))
DENSITY = 0.5


def dense_family(seed: int, n: int) -> SetFamily:
    keep = np.random.Generator(np.random.Philox(seed)).random(1 << n) < DENSITY
    return SetFamily(n, tuple(int(m) for m in np.flatnonzero(keep)))


class Chains:
    """``chain_profile`` and ``count_marked_chains`` for (k, a) in (2, 1),
    (2, 2) and (3, 1), over seeded dense families at n = 8..12."""

    def __init__(self, seed: int, tick: Callable[[], None]):
        self.seed = seed
        self.input_digest = digest(
            [list(self._family(0, i, n).members) for i, n in enumerate(CHAIN_NS)]
        )
        tick()
        for op in self._ops(WARM, self._family(WARM, 0, 10), exact=False):
            op.run()
            tick()

    def _family(self, k: int, i: int, n: int) -> SetFamily:
        return dense_family(subseed(self.seed, k, i), n)

    def _ops(self, k: int, family: SetFamily, exact: bool) -> list[Op]:
        n, members = family.n, family.members
        profile = {}  # the checked profile, which bounds the marked counts

        def check_profile(counts) -> bool:
            profile["counts"] = counts
            if exact:
                return counts == oracles.chain_profile(n, members)
            return oracles.profile_identities_hold(n, members, counts)

        ops = [Op(
            f"chain_profile {n}",
            lambda: lattice.chain_profile(family).counts,
            check_profile,
            list,
        )]
        for mk, ma in MARKS:
            def check(count, mk=mk, ma=ma) -> bool:
                if exact:
                    return count == oracles.marked_chains(n, members, mk, ma)
                bound = oracles.marked_upper_bound(profile["counts"], mk)
                return count == bound if ma == 1 else 0 <= count <= bound

            ops.append(Op(
                f"count_marked_chains {n} {mk} {ma}",
                lambda mk=mk, ma=ma: lattice.count_marked_chains(family, mk, ma),
                check,
                lambda count: count,
            ))
        return ops

    def pass_ops(self, k: int) -> list[Op]:
        return [
            op
            for i, n in enumerate(CHAIN_NS)
            for op in self._ops(k, self._family(k, i, n), exact=i == 0 and k < EXACT_PASSES)
        ]

    def close(self) -> None:
        pass


WORKLOADS = ("carve-wide", "carve-narrow", "census", "chains")


def make(name: str, seed: int, workdir: Path, tick: Callable[[], None] = lambda: None):
    """Set up a workload: build its inputs from ``seed`` and warm it up,
    calling ``tick`` after each step."""
    if name == "carve-wide":
        return Carve(seed, True, tick)
    if name == "carve-narrow":
        return Carve(seed, False, tick)
    if name == "census":
        return Census(seed, workdir, tick)
    if name == "chains":
        return Chains(seed, tick)
    raise ValueError(f"unknown workload {name!r}")

"""Spans and counters at the module boundaries of posetfree, from outside.

The tracer wraps the functions that cross module boundaries.  It rebinds
each one's name in every ``posetfree`` module that holds it, the defining
module included, so calls from other modules and from inside the module
both pass through the wrapper.  Only functions are wrapped, never classes:
``SetFamily`` equality compares classes, so a wrapping subclass would make
equal pairs compare unequal.  Nothing under ``src/`` is touched.

A span is ``(name, start, end, parent index)``; spans stay in memory until
the pass ends.  Self time is a span's duration minus its children's, which
is exact here because the run is single-threaded and no target calls
itself.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = (
    ("poset", "validate_poset"),
    ("poset", "hasse_graph"),
    ("blowup", "blowup"),
    ("lattice", "chain_profile"),
    ("lattice", "count_marked_chains"),
    ("embedding", "first_copy"),
    ("embedding", "contains_poset_through"),
    ("containers", "container_pair"),
    ("containers", "verify_pair"),
    ("containers", "two_phase"),
    ("containers", "build_collection"),
    ("census", "count_p_free"),
    ("census", "la"),
    ("census", "random_p_free_family"),
    ("census", "experiment_table"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "posetfree" or name.startswith("posetfree.")
        ]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"posetfree.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.keys.clear()

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # Counters observed from results and, through ``bound()``, arguments.
    # Keys hold value tuples, never object ids: blowups and families are
    # rebuilt per call.

    def _observe_embedding_first_copy(self, bound, result) -> None:
        args = bound()
        blow, family = args["blow"], args["family"]
        base = getattr(blow, "base", blow)
        self.keys["first_copy"].add((base.m, base.covers, family.n, family.members))
        self.counts["first_copy.found"] += result is not None

    def _observe_blowup_blowup(self, bound, result) -> None:
        args = bound()
        p = args["poset"]
        self.keys["blowup"].add((p.m, p.covers, args["x"], args["t"], args.get("ord")))

    def _observe_containers_container_pair(self, bound, result) -> None:
        args = bound()
        p = args["poset"]
        self.counts["carves"] += result.carve_count
        self.counts["prunes"] += result.prune_count
        self.keys["pairs"].add(
            (p.m, p.covers, args["root"], args["t"], args["source"].members,
             result.certificate.members)
        )

    def _observe_embedding_contains_poset_through(self, bound, result) -> None:
        self.counts["through.free"] += result is None

    def _observe_census_count_p_free(self, bound, result) -> None:
        self.counts["census.nodes"] += result

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since the last reset."""
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        children: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                children[self.spans[parent][0]] += end - start

        def self_s(name: str) -> float:
            return total[name] - children[name]

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        fc, bl, cp = "embedding.first_copy", "blowup.blowup", "containers.container_pair"
        cpt, cnt = "embedding.contains_poset_through", "census.count_p_free"
        return {
            f"{fc}.calls": calls[fc],
            f"{fc}.s": total[fc],
            f"{fc}.found_ratio": ratio(self.counts["first_copy.found"], calls[fc]),
            f"{fc}.distinct_ratio": ratio(len(self.keys["first_copy"]), calls[fc]),
            f"{bl}.calls": calls[bl],
            f"{bl}.s": total[bl],
            f"{bl}.distinct_ratio": ratio(len(self.keys["blowup"]), calls[bl]),
            f"{cp}.calls": calls[cp],
            f"{cp}.self_s": self_s(cp),
            "containers.verify_pair.s": total["containers.verify_pair"],
            "containers.two_phase.s": total["containers.two_phase"],
            "containers.carves": self.counts["carves"],
            "containers.prunes": self.counts["prunes"],
            "containers.distinct_pairs_ratio": ratio(len(self.keys["pairs"]), calls[cp]),
            f"{cpt}.calls": calls[cpt],
            f"{cpt}.s": total[cpt],
            f"{cpt}.free_ratio": ratio(self.counts["through.free"], calls[cpt]),
            f"{cnt}.s": total[cnt],
            f"{cnt}.nodes": self.counts["census.nodes"],
            "census.nodes_per_s": ratio(self.counts["census.nodes"], total[cnt]),
            "census.la.s": total["census.la"],
            "census.random_p_free_family.s": total["census.random_p_free_family"],
            "census.experiment_table.s": total["census.experiment_table"],
            "cli.main.self_s": self_s("cli.main"),
            "lattice.chain_profile.calls": calls["lattice.chain_profile"],
            "lattice.chain_profile.s": total["lattice.chain_profile"],
            "lattice.count_marked_chains.self_s": self_s("lattice.count_marked_chains"),
            "poset.hasse_graph.calls": calls["poset.hasse_graph"],
            "poset.validate_poset.calls": calls["poset.validate_poset"],
        }


def write_spans(spans, path) -> None:
    """One JSON row per span: name, start and end (seconds from the first
    span's start), and the parent's row number or -1."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as out:
        for name, start, end, parent in spans:
            out.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")

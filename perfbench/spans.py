"""Span tracing of pnkit's public functions, from outside the library.

`Tracer.install` wraps each function in TARGETS and rebinds the wrapper
under every name a `pnkit` module holds for it (the defining module and
each `from .x import f`), so calls between modules are traced too.
`Ddf.eval` and `Ddf` construction run about 10^5 times per run and are
not wrapped; their cost shows in the caller's self time.

Spans (name, start, end, parent, item id) are kept in flat arrays in
memory and written out by `Tracer.dump` when the run ends.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because the benchmark runs one call at a time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from pnkit.neighborhoods import default_tprime_schedule

NO_ITEM = -1


def _pair_sums(args, kwargs, result):
    _, F, G = args
    return {"pair_sums": len(F.jumps) * len(G.jumps), "out_jumps": len(result.jumps)}


def _knots(args, kwargs, result):
    F, G = args
    return {"knots": len(F.jumps) + len(G.jumps)}


def _continuity_levels(args, kwargs, result):
    t = result.t
    schedule = kwargs.get("tprime_schedule") or (args[4] if len(args) > 4 else None)
    schedule = tuple(float(x) for x in (schedule or default_tprime_schedule(t)))
    scanned = sum(len(schedule) if e.witness_tprime is None
                  else schedule.index(e.witness_tprime) + 1 for e in result.entries)
    witnessed = sum(e.witness_tprime is not None for e in result.entries)
    return {"points": len(result.entries), "levels_scanned": scanned, "witnessed": witnessed}


def _pairs_checked(args, kwargs, result):
    return {"checked": result.checked}


def _estimate_levels(args, kwargs, result):
    return {"levels": len(result.levels),
            "levels_skipped": sum(lv.largest_pair_gap is None for lv in result.levels)}


def _refinements(args, kwargs, result):
    return {"refinements": result.refinements}


def _hull_exact(args, kwargs, result):
    return {"exact": int(result.distance == 0.0)}


def _bytes_written(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


# (module, attribute, layer name, work counter).  An attribute of the
# form "Class.method" wraps the method on the class.
TARGETS = (
    ("pnkit.tnorms", "tau_apply", "tnorms.tau_apply", _pair_sums),
    ("pnkit.ddf", "ddf_leq_witness", "ddf.ddf_leq_witness", _knots),
    ("pnkit.ddf", "left_limit_of_infimum", "ddf.left_limit_of_infimum", None),
    ("pnkit.pn_space", "prob_norm", "pn_space.prob_norm", None),
    ("pnkit.pn_space", "check_axioms", "pn_space.check_axioms", None),
    ("pnkit.neighborhoods", "strong_t_continuity_test",
     "neighborhoods.strong_t_continuity_test", _continuity_levels),
    ("pnkit.neighborhoods", "in_strong_neighborhood", "neighborhoods.in_strong_neighborhood", None),
    ("pnkit.neighborhoods", "check_pairwise_image_separation",
     "neighborhoods.check_pairwise_image_separation", _pairs_checked),
    ("pnkit.neighborhoods", "prob_diameter", "neighborhoods.prob_diameter", None),
    ("pnkit.discont", "discontinuity_exact", "discont.discontinuity_exact", None),
    ("pnkit.discont", "discontinuity_estimate", "discont.discontinuity_estimate", _estimate_levels),
    ("pnkit.discont", "limit_set", "discont.limit_set", None),
    ("pnkit.discont", "SampledMap.neighbor_images", "discont.neighbor_images", None),
    ("pnkit.discont", "convex_hull", "discont.convex_hull", None),
    ("pnkit.discont", "map_eval_vec", "discont.map_eval_vec", None),
    ("pnkit.fixpoint", "verify_approx_fixed_point", "fixpoint.verify_approx_fixed_point", None),
    ("pnkit.fixpoint", "find_approx_fixed_point", "fixpoint.find_approx_fixed_point", _refinements),
    ("pnkit.fixpoint", "kakutani_search", "fixpoint.kakutani_search", _hull_exact),
    ("pnkit.cli", "generate_scenarios", "cli.generate_scenarios", None),
    ("pnkit.cli", "run_verify", "cli.run_verify", None),
    ("pnkit.cli", "write_report", "cli.write", _bytes_written),
)
LAYERS = tuple(t[2] for t in TARGETS)


class Tracer:
    """Records one span per call of a wrapped function.  `item` is the
    id stamped on new spans: the loop index, or NO_ITEM outside the loop."""

    def __init__(self):
        self.item = NO_ITEM
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_item = array("i")
        self.counts: dict[tuple[str, bool], dict[str, int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, counter):
        layer = LAYERS[layer_id]
        name, start, end, parent, span_item = (
            self.name, self.start, self.end, self.parent, self.span_item)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            span_item.append(self.item)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                totals = self.counts.setdefault((layer, self.item != NO_ITEM), {})
                for key, value in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pnkit" or n.startswith("pnkit."))]
        for layer_id, (mod_name, attr, _, counter) in enumerate(TARGETS):
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(layer_id, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(layer_id, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "item": np.frombuffer(self.span_item, dtype=np.int32)}

    def dump(self, path: Path) -> None:
        """Write every span, with the layer names they index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS), **self.arrays())

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the timed loop, per loop item.  `cli.write`
        runs only in the CLI check after the loop and is reported per call."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ms = (dur - child) * 1e3
        in_loop = a["item"] != NO_ITEM
        n_layers = len(LAYERS)
        calls = np.bincount(a["name"][in_loop], minlength=n_layers)
        self_sum = np.bincount(a["name"][in_loop], weights=self_ms[in_loop], minlength=n_layers)

        def per_item(x: float) -> float:
            return x / items

        def lid(layer: str) -> int:
            return LAYERS.index(layer)

        def count(layer: str, key: str, loop: bool = True) -> int:
            return self.counts.get((layer, loop), {}).get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            if layer != "cli.write":
                out[f"{layer}.calls"] = (per_item(calls[lid(layer)]), "calls/item")
                out[f"{layer}.self_ms"] = (per_item(self_sum[lid(layer)]), "ms/item")
        for layer, key in (("tnorms.tau_apply", "pair_sums"), ("tnorms.tau_apply", "out_jumps"),
                           ("ddf.ddf_leq_witness", "knots"),
                           ("neighborhoods.strong_t_continuity_test", "points"),
                           ("neighborhoods.strong_t_continuity_test", "levels_scanned"),
                           ("neighborhoods.check_pairwise_image_separation", "checked"),
                           ("discont.discontinuity_estimate", "levels"),
                           ("discont.discontinuity_estimate", "levels_skipped"),
                           ("fixpoint.find_approx_fixed_point", "refinements")):
            out[f"{layer}.{key}"] = (per_item(count(layer, key)), "count/item")

        st = "neighborhoods.strong_t_continuity_test"
        out[f"{st}.witness_ratio"] = (
            ratio(count(st, "witnessed"), count(st, "levels_scanned")), "ratio")

        kk = lid("fixpoint.kakutani_search")
        hull = (a["name"] == lid("discont.convex_hull")) & in_loop & has_parent
        under_kk = np.zeros(len(dur), dtype=bool)
        under_kk[hull] = a["name"][a["parent"][hull]] == kk
        out["fixpoint.kakutani_search.candidates"] = (per_item(int(under_kk.sum())), "count/item")
        out["fixpoint.kakutani_search.exact_ratio"] = (
            ratio(count("fixpoint.kakutani_search", "exact"), calls[kk]), "ratio")

        writes = (a["name"] == lid("cli.write")) & ~in_loop
        n_writes = int(writes.sum())
        out["cli.write.self_ms"] = (ratio(float(self_ms[writes].sum()), n_writes), "ms/call")
        out["cli.write.bytes"] = (ratio(count("cli.write", "bytes", False), n_writes), "bytes/call")
        return out

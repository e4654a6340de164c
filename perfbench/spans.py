"""Span tracing for the traced run, and the per-layer metrics built on it.

Wrappers go in only for the traced run. Every binding that *is* one of
the wrapped functions, in every loaded `esakiakit` module, is replaced,
so a call is seen whichever module it is made through; `Poset`'s methods
are wrapped on the class. Spans (name, start, end, parent, op id) are kept
in flat arrays in memory and written out once at the end.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

LAYERS = ("poset", "algebra", "reduction", "coloring", "spaces", "lemma",
          "probes", "cli")

# Bit and term helpers called inside inner loops: a span per call would
# cost more than the work it measures, so their time counts toward the
# caller's self time.
UNWRAPPED = {
    "poset": {"ids_of", "mask_of"},
    "algebra": {"evaluate", "var", "t_and", "t_or", "t_imp", "t_not"},
    "coloring": {"color_leq", "color_bits"},
    "spaces": {"abomination_id", "ladder_id"},
}
POSET_METHODS = ("from_covers", "from_leq", "with_bottom", "upsets",
                 "canonical_form")
ALIASES = {
    "reduction.color_respecting_reduction": "reduction.coarsest",
    "reduction.brute_coarsest_color_respecting": "reduction.brute_coarsest",
    "spaces.abomination_truncation": "spaces.truncation",
    "spaces.ladder_truncation": "spaces.truncation",
}
# Result sizes kept per span: span name -> (metric summing them, size).
RESULT_SIZE = {
    "algebra.subalgebras": ("algebra.subalgebras.found", len),
    "reduction.all_epartitions": ("reduction.all_epartitions.kept", len),
    "probes.enumerate_posets": (None, len),
    "lemma.schedule_beta_reductions": ("lemma.schedule_steps", lambda s: len(s.steps)),
}
ENUM_ROOTS = ("reduction.all_epartitions", "reduction.brute_coarsest")
SHARE_GROUPS = ("algebra", "reduction_enum", "reduction_replay", "poset",
                "coloring", "lemma", "probes", "spaces", "cli", "bench")
MARK = "__perfbench_span__"


class Tracer:
    """In-memory span store. `op` is the id stamped on new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.raised = array("b")
        self.size = array("q")
        self.stack = [-1]
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.raised.append(0)
        self.size.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()
        if raised:
            self.raised[idx] = 1

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        measure = RESULT_SIZE.get(name, (None, None))[1]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, raised=True)
                raise
            tracer.close(idx)
            if measure is not None:
                tracer.size[idx] = measure(result)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,raised\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op_of[i]},"
                         f"{self.raised[i]}\n")


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.idx, raised=exc_type is not None)
        return False


def original(fn):
    """The function a wrapper stands for (fn itself when unwrapped)."""
    return fn.__wrapped__ if hasattr(fn, MARK) else fn


# ----- installing wrappers ---------------------------------------------------


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "esakiakit" or name.startswith("esakiakit."))]


def wrap_targets():
    """(span name, function) for every wrapped module-level function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"esakiakit.{layer}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if attr in UNWRAPPED.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            out.append((ALIASES.get(name, name), value))
    return out


def install(tracer: Tracer, extra=()) -> list[tuple[object, str, object]]:
    """Wrap every target binding, plus each (owner, attribute, span name)
    in `extra`; returns what `remove` needs to undo it."""
    saved = []
    for owner, attr, name in extra:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn))
    targets = {id(fn): (name, fn) for name, fn in wrap_targets()}
    wrappers = {}
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = targets.get(id(value))
            if hit is None or hit[1] is not value:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = tracer.wrap(*hit)
            saved.append((mod, attr, value))
            setattr(mod, attr, wrappers[id(value)])
    poset_cls = sys.modules["esakiakit.poset"].Poset
    for attr in POSET_METHODS:
        raw = poset_cls.__dict__[attr]
        saved.append((poset_cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(poset_cls, attr, classmethod(tracer.wrap(f"poset.{attr}", raw.__func__)))
        else:
            setattr(poset_cls, attr, tracer.wrap(f"poset.{attr}", raw))
    return saved


def remove(saved) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)


def wrapped_bindings() -> list[str]:
    """Every binding in the package that is still a wrapper; empty when
    the program runs as shipped."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
    poset_cls = sys.modules["esakiakit.poset"].Poset
    for attr in POSET_METHODS:
        raw = poset_cls.__dict__[attr]
        if hasattr(getattr(raw, "__func__", raw), MARK):
            found.append(f"Poset.{attr}")
    return found


# ----- span arithmetic ---------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its children. Spans
    are opened and closed on one stack, so children never overlap each
    other or outlast their parent."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def within(tracer: Tracer, names) -> list[bool]:
    """For each span: is it, or one of its ancestors, named in `names`."""
    ids = {tracer._name_ids[n] for n in names if n in tracer._name_ids}
    flags: list[bool] = []
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        flags.append(tracer.name[i] in ids or (p >= 0 and flags[p]))
    return flags


def span_groups(tracer: Tracer) -> list[str]:
    """Share group of each span: its layer, with the reduction layer split
    into enumeration (inside an all_epartitions or brute-force span) and
    replay (everything else)."""
    in_enum = within(tracer, ENUM_ROOTS)
    groups = []
    for i in range(len(tracer.start)):
        layer = tracer.names[tracer.name[i]].split(".")[0]
        if layer == "reduction":
            layer = "reduction_enum" if in_enum[i] else "reduction_replay"
        groups.append(layer)
    return groups


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-name call counts, self seconds and result sizes, per-layer
    exception counts, the two yield ratios, and each group's share of the
    time spent inside ops."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    groups = span_groups(tracer)
    names = tracer.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, int] = {}
    raised = {layer: 0 for layer in LAYERS}
    group_s = {g: 0.0 for g in SHARE_GROUPS}
    op_total = 0.0
    under_ep = within(tracer, ["reduction.all_epartitions"])
    under_en = within(tracer, ["probes.enumerate_posets"])
    checks_in_ep = built_in_enum = classes = 0
    for i, s in enumerate(selfs):
        name = names[tracer.name[i]]
        p = tracer.parent[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        sizes[name] = sizes.get(name, 0) + tracer.size[i]
        layer = name.split(".")[0]
        if tracer.raised[i] and layer in raised:
            raised[layer] += 1
        if name == "reduction.is_epartition" and p >= 0 and under_ep[p]:
            checks_in_ep += 1
        if name == "poset.from_covers" and p >= 0 and under_en[p]:
            built_in_enum += 1
        if name == "probes.enumerate_posets" and not (p >= 0 and under_en[p]):
            classes += tracer.size[i]
        if tracer.op_of[i] >= 0:
            group_s[groups[i]] += s
            if p < 0:
                op_total += tracer.end[i] - tracer.start[i]
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        metric = RESULT_SIZE.get(name, (None,))[0]
        if metric is not None:
            out[metric] = sizes[name]
    for layer, count in raised.items():
        out[f"{layer}.raised"] = count
    kept = sizes.get("reduction.all_epartitions", 0)
    out["reduction.epartition_yield"] = kept / checks_in_ep if checks_in_ep else 0.0
    out["probes.enumerate_posets.kept_ratio"] = classes / built_in_enum if built_in_enum else 0.0
    for g, s in group_s.items():
        out[f"share.{g}"] = s / op_total if op_total else 0.0
    return out

"""Per-layer spans and counters, recorded from the benchmark's side.

The tracer wraps the program's public functions without editing the
program: each target is looked up by module and name, and every module
of the ``itype`` package that binds that function object (the defining
module, modules that imported it by name, the package namespace) gets
the wrapper in its place.  Calls made through any of those names are
therefore seen, including calls inside the defining module.  A target
that no longer exists is dropped, so the benchmark keeps running after
the program is refactored; the dropped names are reported.

Spans nest.  A group's busy time is the time spent inside its outermost
spans, its calls are the number of those outermost spans, and its self
time is its span time not covered by any child span.  Counts that a
hook derives from a formula (candidates, reduced words, rows) are kept
apart from measured counts and labelled as computed when reported.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "itype"


@dataclass
class Group:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    errors: dict[str, int] = field(default_factory=dict)


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _enumerate_hook(sig, args, kwargs, result, counts):
    n = _arg(sig, args, kwargs, "n")
    counts["ybr.enumerate.candidates"] += math.factorial(n) ** n
    counts["ybr.enumerate.solutions"] += result.raw_count


def _build_hook(sig, args, kwargs, result, counts):
    n, d = _arg(sig, args, kwargs, "r").n, _arg(sig, args, kwargs, "D")
    # rows for every exponent vector of degree <= D-1
    counts["istructure.build.rows"] += math.comb(n + d - 1, n)


def _decode_hook(sig, args, kwargs, result, counts):
    counts["istructure.decode.letters"] += len(args[1])


def _freeness_hook(sig, args, kwargs, result, counts):
    n, length = _arg(sig, args, kwargs, "pm").n, _arg(sig, args, kwargs, "L")
    # reduced words of length 1..L in n generators and their inverses
    counts["bieberbach.freeness.words"] += sum(
        2 * n * (2 * n - 1) ** (k - 1) for k in range(1, length + 1)
    )
    counts["bieberbach.freeness.isometries"] += result.isometries_seen


def _tiling_hook(sig, args, kwargs, result, counts):
    counts["bieberbach.tiling.elements"] += result.orbit_size


# (group, module, attribute, hook); the attribute may be Class.method.
SPANS = [
    ("core.compose_perm", "itype.core", "compose_perm", None),
    ("presentation.parse", "itype.presentation", "parse_presentation", None),
    ("presentation.parse", "itype.presentation", "parse_word", None),
    ("presentation.parse", "itype.ybr", "parse_rtable", None),
    ("presentation.star", "itype.presentation", "star_report", None),
    ("presentation.star", "itype.presentation", "check_cyclic", None),
    ("ybr.axioms", "itype.ybr", "check_axioms", None),
    ("ybr.axioms", "itype.ybr", "check_involutive", None),
    ("ybr.axioms", "itype.ybr", "check_yb", None),
    ("ybr.axioms", "itype.ybr", "check_nondegenerate", None),
    ("ybr.orbits", "itype.ybr", "classify_orbits3", None),
    ("ybr.enumerate", "itype.ybr", "enumerate_solutions", _enumerate_hook),
    ("ybr.canonical_form", "itype.ybr", "canonical_form", None),
    ("istructure.build", "itype.istructure", "build_itable", _build_hook),
    ("istructure.decode", "itype.istructure", "v_inverse", _decode_hook),
    ("istructure.encode", "itype.istructure", "v_of", None),
    ("structuremaps.kernel", "itype.structuremaps", "kernel_exponents", None),
    ("structuremaps.cosets", "itype.structuremaps", "coset_decomposition", None),
    ("structuremaps.cocycle", "itype.structuremaps", "cocycle_exhaustive", None),
    ("bieberbach.convention", "itype.bieberbach", "resolve_convention", None),
    ("bieberbach.consistency", "itype.bieberbach", "check_action_consistency", None),
    ("bieberbach.freeness", "itype.bieberbach", "freeness_check", _freeness_hook),
    ("bieberbach.tiling", "itype.bieberbach", "fundamental_domain_check", _tiling_hook),
    ("cli.main", "itype.cli", "main", None),
]

# Call counts only, no timing: these run in the innermost loops.
COUNTERS = [
    ("core.perm_new", "itype.core", "Perm.__post_init__"),
    ("structuremaps.phi", "itype.structuremaps", "phi_of"),
    ("bieberbach.compose", "itype.bieberbach", "compose"),
]

COMPUTED = (
    "ybr.enumerate.candidates",
    "istructure.build.rows",
    "bieberbach.freeness.words",
)


class Tracer:
    """Install with ``with Tracer() as tr:``; the wrappers are removed on
    exit.  One tracer per run: it keeps its spans' totals in memory."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.groups: dict[str, Group] = {}
        self.counts: Counter[str] = Counter()
        self.dropped: list[str] = []
        self.hook_failures: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def group(self, name: str) -> Group:
        return self.groups.setdefault(name, Group())

    def __enter__(self) -> "Tracer":
        for group, module, attr, hook in self.spans:
            self._install(module, attr, lambda orig, g=group, h=hook: self._span(g, orig, h))
        for group, module, attr in COUNTERS:
            self._install(module, attr, lambda orig, g=group: self._counter(g, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _install(self, module: str, attr: str, make) -> None:
        owner = sys.modules.get(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        orig = getattr(owner, path[-1], None) if owner is not None else None
        if orig is None:
            self.dropped.append(f"{module}.{attr}")
            return
        wrapper = make(orig)
        if len(path) > 1:  # a method: rebind it on its class
            self._rebind(owner, path[-1], orig, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._rebind(mod, key, orig, wrapper)

    def _rebind(self, owner, name: str, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def _counter(self, group: str, orig):
        stat = self.group(group)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return orig(*args, **kwargs)

        return wrapper

    def _span(self, group: str, orig, hook):
        stat = self.group(group)
        stack = self._stack
        sig = inspect.signature(orig)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                name = type(exc).__name__
                stat.errors[name] = stat.errors.get(name, 0) + 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if stat.active == 0:
                    stat.calls += 1
                    stat.busy_s += dt
            if hook is not None:
                try:
                    hook(sig, args, kwargs, result, counts)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    self.hook_failures[group] = self.hook_failures.get(group, 0) + 1
            return result

        return wrapper

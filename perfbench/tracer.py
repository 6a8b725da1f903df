"""Spans around patstat's public functions, recorded from outside the package.

``Tracer.install()`` wraps every public function of the seven modules and
the methods of the polynomial classes, then rebinds each wrapped function
under every name that any patstat module bound it to (``engine`` imports
``all_perms`` and ``inflate`` from ``perms``, ``cli`` imports
``format_perm``, ...), so calls between modules are traced too.

A span is (name, parent, start, end), kept in flat arrays in memory and
written out by ``write``.  A generator function's span covers only the
time spent inside the generator: its end is its start plus the summed
time of its resumes, and spans opened during a resume are its children.
A span's self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "engine", "polynomials", "formulas", "words", "perms", "verify")
_POLY_CLASSES = ("QPoly", "QTPoly", "TruncatedSeries")
_ARITH = frozenset((
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "invert",
    "substitute_t_scale", "specialize_t1", "reverse", "scale", "shift_x",
    "eval_at", "eval_at_q1",
))
_FORMAT = frozenset(("__str__", "to_json"))
_CONSTRUCT = "__init__"
_METHOD_DUNDERS = _ARITH | _FORMAT | {_CONSTRUCT}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.yielded: dict[int, int] = {}
        # engine.profile: keys seen in this process, the spans that missed,
        # and the avoiders those misses covered
        self._profile_keys: set = set()
        self.profile_hits = 0
        self.profile_miss_spans: list[int] = []
        self.profile_miss_avoiders = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, now: float) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(now)
        self.end.append(now)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._trace_generator(fn(*args, **kwargs), nid)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def _trace_generator(self, gen, nid: int):
        sid = -1
        busy = 0.0
        try:
            while True:
                t0 = time.perf_counter()
                if sid < 0:
                    sid = self._open(nid, t0)
                else:
                    self._stack.append(sid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - t0
                    self.end[sid] = self.start[sid] + busy
                    self._stack.pop()
                self.yielded[nid] = self.yielded.get(nid, 0) + 1
                yield item
        finally:
            gen.close()

    def _wrap_profile(self, fn):
        """engine.profile, also counting hits: calls whose key was seen before."""
        nid = self._intern("engine.profile")

        @functools.wraps(fn)
        def profile(n, patterns, *args, **kwargs):
            if not isinstance(patterns, (list, tuple)):
                patterns = tuple(patterns)
            key = (n, tuple(sorted({tuple(p) for p in patterns})))
            sid = self._open(nid, time.perf_counter())
            try:
                result = fn(n, patterns, *args, **kwargs)
            finally:
                self._close(sid)
            if key in self._profile_keys:
                self.profile_hits += 1
            else:
                self._profile_keys.add(key)
                self.profile_miss_spans.append(sid)
                self.profile_miss_avoiders += result.count
            return result
        return profile

    def install(self) -> None:
        """Wrap and rebind; call once, before the traced work."""
        modules = {m: importlib.import_module(f"patstat.{m}") for m in LAYERS}
        replacements: dict[int, tuple] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if short == "engine" and attr == "profile":
                    replacements[id(obj)] = (obj, self._wrap_profile(obj))
                else:
                    replacements[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for mod in [m for k, m in sys.modules.items() if k == "patstat" or k.startswith("patstat.")]:
            for attr, obj in list(vars(mod).items()):
                found = replacements.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(mod, attr, found[1])
        for cls_name in _POLY_CLASSES:
            cls = getattr(modules["polynomials"], cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _METHOD_DUNDERS:
                    continue
                name = f"polynomials.{cls_name}.{attr}"
                if isinstance(obj, staticmethod):
                    setattr(cls, attr, staticmethod(self.wrap(obj.__func__, name)))
                elif inspect.isfunction(obj):
                    setattr(cls, attr, self.wrap(obj, name))

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        selfs = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name_self = [0.0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        by_name_total = [0.0] * len(self.names)
        for i, s in enumerate(selfs):
            nid = self.name[i]
            by_name_self[nid] += s
            by_name_calls[nid] += 1
            by_name_total[nid] += self.end[i] - self.start[i]
        construct_s = arith_s = format_s = 0.0
        construct_n = 0
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] += by_name_self[nid]
            calls[layer] += by_name_calls[nid]
            method = name.rsplit(".", 1)[-1]
            if layer == "polynomials" and name.count(".") == 2:
                if method == _CONSTRUCT:
                    construct_s += by_name_self[nid]
                    construct_n += by_name_calls[nid]
                elif method in _ARITH:
                    arith_s += by_name_self[nid]
                elif method in _FORMAT:
                    format_s += by_name_self[nid]

        def of(name: str, table) -> float:
            nid = self._ids.get(name)
            return table[nid] if nid is not None else 0

        search_s = sum(selfs[i] for i in self.profile_miss_spans)
        enum_s = of("engine.enumerate_avoiders", by_name_total)
        enum_n = self.yielded.get(self._ids.get("engine.enumerate_avoiders", -1), 0)
        profile_calls = of("engine.profile", by_name_calls)
        return {
            "engine.search.self_s": search_s,
            "engine.search.avoiders_per_s": self.profile_miss_avoiders / search_s if search_s else 0.0,
            "engine.enumerate.s": enum_s,
            "engine.enumerate.perms_per_s": enum_n / enum_s if enum_s else 0.0,
            "engine.profile.calls": profile_calls,
            "engine.profile.hit_ratio": self.profile_hits / profile_calls if profile_calls else 0.0,
            "engine.classify.self_s": of("engine.classify", by_name_self),
            "engine.self_s": layer_self["engine"],
            "polynomials.construct.count": construct_n,
            "polynomials.construct.self_s": construct_s,
            "polynomials.arith.self_s": arith_s,
            "polynomials.format.self_s": format_s,
            "polynomials.self_s": layer_self["polynomials"],
            "formulas.self_s": layer_self["formulas"],
            "formulas.calls": calls["formulas"],
            "words.self_s": layer_self["words"],
            "perms.self_s": layer_self["perms"],
            "perms.calls": calls["perms"],
            "verify.self_s": layer_self["verify"],
            "cli.self_s": layer_self["cli"],
        }

    def write(self, path) -> None:
        """One JSON line of span names, then one [name, parent, start, end] per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                f.write(f"[{self.name[i]},{self.parent[i]},{self.start[i]!r},{self.end[i]!r}]\n")

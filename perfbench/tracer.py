"""Spans around the calls into each layer, recorded from outside the library.

``Tracer.install`` replaces each traced function at every module binding
that refers to it (for example ``concordance.seifert.hermitian_signature``,
the name ``seifert`` calls it through) and each traced method on its class,
with a wrapper that records a span: name, start, end and parent.  Spans
stay in memory; self time (a span's duration minus its direct children's)
and the per-name counters are kept as the spans close, and ``dump`` writes
the spans out at the end.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute or Class.method, counter) per traced function; the
# counter maps the call's arguments to (stat name, value, "max" or "sum").
TARGETS = [
    ("laurent", "factor", lambda a: ("max_degree", a[0].high() - a[0].low(), "max")),
    ("laurent", "fox_milnor_pairing", None),
    ("seifert", "alexander", None),
    ("seifert", "levine_tristram", None),
    ("seifert", "signature_function", None),
    ("seifert", "SignatureFunction.evaluate", None),
    ("cyclotomic", "hermitian_signature", None),
    ("cyclotomic", "CycloInt.sign", None),
    ("cyclotomic", "cos2pi_bounds", lambda a: ("max_prec", a[2], "max")),
    ("realroots", "isolate_roots", lambda a: ("max_degree", len(a[0]) - 1, "max")),
    ("realroots", "RootMarker.refine", None),
    ("cabling", "cable_signature", None),
    ("cabling", "finite_order_obstruction", None),
    ("cabling", "fox_milnor_obstruction", None),
    ("cabling", "rational_concordance_verdict", None),
    ("surgery", "smith_normal_form", lambda a: ("max_dim", len(a[0]), "max")),
    ("surgery", "first_homology", None),
    ("surgery", "cobordism_meridian_check", None),
    ("legendrian", "FrontDiagram.__init__", lambda a: ("events", len(tuple(a[1])), "sum")),
    ("legendrian", "cable_front", None),
    ("legendrian", "satellite_front", None),
    ("legendrian", "FrontDiagram.invariants", None),
    ("catalog", "load_catalog", None),
]

# calls of these scan the circle; evaluate calls inside them are its angles
SCANS = {"cabling.finite_order_obstruction", "cabling.rational_concordance_verdict"}
EVALUATE = "seifert.SignatureFunction.evaluate"
# spans kept in memory (and written out); self times and counters cover all
MAX_SPANS = 200_000


def metric_name(module: str, attr: str) -> str:
    """Layer metric prefix: ``FrontDiagram.__init__`` is the sweep itself."""
    if attr == "FrontDiagram.__init__":
        attr = "FrontDiagram"
    elif attr == "FrontDiagram.invariants":
        attr = "invariants"
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.dropped = 0
        self.stack: list = []
        self.stats: dict[str, dict] = {}
        self.paused = False
        self.scan_depth = 0
        self.scan_angles = 0
        self._restore: list = []

    def _wrap(self, name: str, fn, counter):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        scan = name in SCANS
        evaluate = name == EVALUATE
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, len(spans)]
            if frame[2] < MAX_SPANS:
                spans.append(None)
            else:
                frame[2] = -1
                tracer.dropped += 1
            stack.append(frame)
            tracer.scan_depth += scan
            error = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.scan_depth -= scan
                duration = end - frame[0]
                stats["calls"] += 1
                stats["self_s"] += duration - frame[1]
                stats["errors"] += error
                if stack:
                    stack[-1][1] += duration
                if frame[2] >= 0:
                    spans[frame[2]] = (name_id, frame[0], end, parent)
                if evaluate and tracer.scan_depth:
                    tracer.scan_angles += 1
                if counter is not None:
                    key, value, how = counter(args)
                    old = stats.get(key, 0)
                    stats[key] = max(old, value) if how == "max" else old + value

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [package] + [
            m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")
        ]
        for module, attr, counter in TARGETS:
            home = sys.modules[f"{package.__name__}.{module}"]
            name = metric_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn, counter))
                self._restore.append((cls, meth, fn))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(name, fn, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def reset_stack(self) -> None:
        """Forget spans left open by an interrupted operation."""
        self.stack.clear()
        self.scan_depth = 0

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "scan_angles": self.scan_angles,
            "spans": sum(1 for s in self.spans if s is not None) + self.dropped,
            "dropped": self.dropped,
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: [id, name, start, end, parent]."""
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name_id, start, end, parent = span
                    out.write(json.dumps([i, self.names[name_id], start, end, parent]) + "\n")


def merge_stats(into: dict, stats: dict) -> None:
    for name, s in stats.items():
        dst = into.setdefault(name, {})
        for key, value in s.items():
            if key.startswith("max_"):
                dst[key] = max(dst.get(key, 0), value)
            else:
                dst[key] = dst.get(key, 0) + value

"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every ``tmcount``
module on each name under which a module of the package holds them
(``cli`` imports ``counting_sweep`` by name, for example), the
``RingBandWorkspace`` and ``BandFactor`` methods on their classes, and
the two LAPACK calls that ``hamiltonian`` reaches through its ``lapack``
name.  ``logscale`` is reached only inside ``duality_residual`` and
``det_shifted`` and is reported there.  ``Tracer.uninstall`` puts every
original back.

Each wrapped call is a span; a layer's self time is the time in its
spans less the time in the spans they cause in other layers.  Spans are
summed in memory, never written per call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("operators", "anderson", "transfer", "hamiltonian", "counting", "cli")

#: methods traced on their class, as (module, class, method, span name)
METHODS = (
    ("hamiltonian", "RingBandWorkspace", "__init__", "workspace"),
    ("hamiltonian", "RingBandWorkspace", "factor", "factor"),
    ("hamiltonian", "BandFactor", "corner_solve", "corner_solve"),
    ("hamiltonian", "BandFactor", "logabsdet", "logabsdet"),
    ("hamiltonian", "BandFactor", "det_scaled", "det_scaled"),
)


class _LapackProxy:
    """Stands in for ``scipy.linalg.lapack`` inside ``hamiltonian``."""

    def __init__(self, real, tracer):
        self._real = real
        self.zgbtrf = tracer.wrap("lapack", "zgbtrf", real.zgbtrf)
        self.zgbtrs = tracer.wrap("lapack", "zgbtrs", real.zgbtrs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Call counts, inclusive times and layer self times of one run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sweep = {"levels": 0, "escalated": 0, "final_n_phi": 0, "factor": 0}
        self.locate = {"exponents": 0, "factor": 0}
        self._stack = []
        self._patches = []

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[key] += 1
                self.seconds[key] += dt
                self.self_s[layer] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt

        return traced

    def _observe_sweep(self, fn):
        signature = inspect.signature(fn)

        def sweep(*args, **kwargs):
            before = self.calls["hamiltonian.factor"]
            out = fn(*args, **kwargs)
            quad = signature.bind(*args, **kwargs).arguments.get("quad")
            if quad is None:
                quad = sys.modules["tmcount.counting"].QuadratureSpec()
            start = quad.n_phi
            self.sweep["levels"] += len(out)
            self.sweep["escalated"] += sum(1 for s in out if s.n_phi > start)
            self.sweep["final_n_phi"] += sum(s.n_phi for s in out)
            self.sweep["factor"] += self.calls["hamiltonian.factor"] - before
            return out

        return functools.wraps(fn)(sweep)

    def _observe_locate(self, fn):
        def locate(*args, **kwargs):
            before = self.calls["hamiltonian.factor"]
            out = fn(*args, **kwargs)
            self.locate["exponents"] += len(out.values)
            self.locate["factor"] += self.calls["hamiltonian.factor"] - before
            return out

        return functools.wraps(fn)(locate)

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        import importlib
        package = [importlib.import_module(f"tmcount.{layer}") for layer in LAYERS]
        holders = [sys.modules["tmcount"], *package]
        for mod in package:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(layer, name, fn)
                if name == "counting_sweep":
                    wrapped = self._observe_sweep(wrapped)
                elif name == "locate_exponents":
                    wrapped = self._observe_locate(wrapped)
                for holder in holders:
                    if getattr(holder, name, None) is fn:
                        self._set(holder, name, wrapped)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(sys.modules[f"tmcount.{modname}"], clsname)
            self._set(cls, meth, self.wrap(modname, span, getattr(cls, meth)))
        ham = sys.modules["tmcount.hamiltonian"]
        self._set(ham, "lapack", _LapackProxy(ham.lapack, self))

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def metrics(self, overhead_s: float, generate_s: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}.

        ``generate_s`` comes from the tracer of the set-up, which writes the
        bar files; everything else comes from this tracer.
        """
        c, s = self.calls, self.seconds
        sweep, loc = self.sweep, self.locate

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "hamiltonian.factor.calls": (c["hamiltonian.factor"], "count"),
            "hamiltonian.factor.self_s": (s["hamiltonian.factor"] - s["lapack.zgbtrf"], "s"),
            "hamiltonian.zgbtrf.s": (s["lapack.zgbtrf"], "s"),
            "hamiltonian.corner_solve.calls": (c["hamiltonian.corner_solve"], "count"),
            "hamiltonian.corner_solve.s": (s["hamiltonian.corner_solve"], "s"),
            "hamiltonian.logabsdet.calls": (c["hamiltonian.logabsdet"], "count"),
            "hamiltonian.build_hamiltonian.s": (s["hamiltonian.build_hamiltonian"], "s"),
            "hamiltonian.duality_residual.s": (s["hamiltonian.duality_residual"], "s"),
            "hamiltonian.workspace.s": (s["hamiltonian.workspace"], "s"),
            "counting.levels": (sweep["levels"], "count"),
            "counting.factor_per_level": (ratio(sweep["factor"], sweep["levels"]), "count"),
            "counting.escalated_levels": (sweep["escalated"], "count"),
            "counting.useful_sample_ratio": (ratio(sweep["final_n_phi"], sweep["factor"]), "ratio"),
            "counting.self_s": (self.self_s["counting"], "s"),
            "counting.locate.calls": (c["counting.locate_exponents"], "count"),
            "counting.locate.s": (s["counting.locate_exponents"], "s"),
            "counting.factor_per_exponent": (ratio(loc["factor"], loc["exponents"]), "count"),
            "counting.jensen.s": (s["counting.jensen_relation"], "s"),
            "transfer.transfer_product.calls": (c["transfer.transfer_product"], "count"),
            "transfer.transfer_product.s": (s["transfer.transfer_product"], "s"),
            "transfer.one_step_transfer.calls": (c["transfer.one_step_transfer"], "count"),
            "operators.load_system.s": (s["operators.load_system"], "s"),
            "anderson.generate.s": (generate_s, "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

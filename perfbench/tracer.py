"""Per-layer tracing of cyclozeta from outside the package.

``Tracer.install()`` wraps chosen functions of each package module in timing
spans and rebinds every name that holds them: module globals, values of
module-level dicts (``arith._PLAIN``), class attributes including aliases
(``PowerSeriesQ.__rmul__ = __mul__``) and ``verify.SUITES``.  A call site that
still reaches an original (say, through a reference captured before
installation) goes uncounted; ``test_perfbench.py`` compares every span count
with cProfile's call count to catch that.

Spans are aggregated as they close (calls, total, self, and one outcome
count) instead of being stored one by one: the hot kernels are entered about
a million times per command, so keeping every span would dwarf the program's
own memory.  A span's self time is its duration minus the durations of the
spans it directly encloses.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "cyclozeta"

# span name -> (module, attribute paths); several paths share one span name
# when one metric covers them
SPANS = {
    "exactpoly.poly_gcd": ("exactpoly", ["poly_gcd"]),
    "exactpoly.poly_divmod": ("exactpoly", ["_divmod"]),
    "exactpoly.poly_mul": ("exactpoly", ["_mul"]),
    "exactpoly.rational_normalize": ("exactpoly", ["RationalFunctionQ.__init__"]),
    "exactpoly.tensor_product": ("exactpoly", ["tensor_product"]),
    "exactpoly.series_mul": ("exactpoly", ["PowerSeriesQ.__mul__"]),
    "exactpoly.expand_fraction": ("exactpoly", ["expand_fraction"]),
    "arith.named_eval": ("arith", ["ArithmeticFunction.__call__"]),
    "arith.ramanujan_sum": ("arith", ["ramanujan_sum"]),
    "arith.mobius": ("arith", ["mobius"]),
    "dirichlet.convolution_example": ("dirichlet", ["convolution_example"]),
    "dirichlet.g_transforms": ("dirichlet", ["g_transforms"]),
    "dirichlet.ps_g_transforms": ("dirichlet", ["ps_g_transforms"]),
    "dirichlet.series_algebra": ("dirichlet", ["DirichletSeries.__mul__", "DirichletSeries.invert"]),
    "dirichlet.checks": ("dirichlet", ["check_star_series", "check_transfer"]),
    "zetaprod.root_data": (
        "zetaprod",
        ["multiplicities", "power_sums", "star_functions", "saito_transform"],
    ),
    "zetaprod.fourier": (
        "zetaprod",
        ["ramanujan_coefficients", "ramanujan_reconstruct", "dft_power_sums"],
    ),
    "zetaprod.to_rational_function": ("zetaprod", ["to_rational_function"]),
    "zetaprod.pairings": (
        "zetaprod",
        [
            "check_totient_pairing",
            "check_pairing_preset",
            "check_mobius_pairing",
            "check_fourier_pair_family",
        ],
    ),
    "zetaprod.cyclotomic_exponents": ("zetaprod", ["cyclotomic_exponents"]),
    "cli.main": ("cli", ["main"]),
}

# modules whose public functions are all spanned, one span per function;
# only their module self time (and one call count) is reported
WHOLE_MODULES = ("apostol", "etaprod", "weights", "catalog")

# lru-cached functions whose hit ratio comes from cache_info(), which counts
# every call whatever the call site
CACHED = {"arith.divisors": ("arith", "divisors"), "exactpoly.cyclotomic": ("exactpoly", "cyclotomic")}


def _gcd_nontrivial(g) -> int:
    return g.degree > 0


def _divmod_exact(qr) -> int:
    return not qr[1]


OUTCOMES = {"exactpoly.poly_gcd": _gcd_nontrivial, "exactpoly.poly_divmod": _divmod_exact}


def _resolve(owner, path: str):
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the spans above in one process; ``snapshot()`` reads the totals."""

    def __init__(self):
        self.stack: list[float] = []
        # span name -> [calls, total_s, self_s, outcome count]
        self.stats: dict[str, list] = {}
        # span name -> originals, for the completeness test
        self.originals: dict[str, list] = {}
        # cache key -> (lru-cached function, cache_info() at install)
        self._caches: dict[str, tuple] = {}

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self.originals.setdefault(name, []).append(fn)
        stack = self.stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if outcome is not None:
                rec[3] += outcome(result)
            return result

        return traced

    def install(self) -> None:
        names = {mod for mod, _ in SPANS.values()} | set(WHOLE_MODULES) | {"verify"}
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in names}
        replace: dict[int, object] = {}
        for name, (mod, paths) in SPANS.items():
            for path in paths:
                owner, attr = _resolve(modules[mod], path)
                fn = vars(owner)[attr]
                replace[id(fn)] = self._wrap(name, fn)
                self._rebind_class(owner, fn, replace[id(fn)])
        for mod in WHOLE_MODULES:
            module = modules[mod]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                replace[id(fn)] = self._wrap(f"{mod}.{attr}", fn)
        verify = modules["verify"]
        verify.SUITES = tuple(
            (suite, self._wrap(f"verify.suite.{suite}", fn)) for suite, fn in verify.SUITES
        )
        for module in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            self._rebind_namespace(vars(module), replace)
        for key, (mod, attr) in CACHED.items():
            fn = getattr(modules[mod], attr)
            self._caches[key] = (fn, fn.cache_info())

    @staticmethod
    def _rebind_class(owner, fn, wrapper) -> None:
        if isinstance(owner, type):
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, attr, wrapper)

    @staticmethod
    def _rebind_namespace(namespace: dict, replace: dict) -> None:
        # dunder names are skipped: __builtins__ is a dict of its own
        for attr, value in list(namespace.items()):
            if id(value) in replace and not attr.startswith("__"):
                namespace[attr] = replace[id(value)]
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        value[key] = replace[id(item)]

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached function since ``install``."""
        out = {}
        for key, (fn, start) in self._caches.items():
            info = fn.cache_info()
            out[key] = (info.hits - start.hits, info.misses - start.misses)
        return out

    def snapshot(self) -> dict:
        """Raw totals, summed by the parent over the commands of a pass."""
        return {
            "spans": {name: list(rec) for name, rec in self.stats.items()},
            "caches": {key: list(v) for key, v in self.cache_counts().items()},
        }


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics of one pass from the summed raw totals."""
    spans, caches = raw["spans"], raw["caches"]
    out: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for name, (calls, total, self_s, outcome) in sorted(spans.items()):
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        if name.startswith("verify.suite."):
            out[f"{name}.total_s"] = total
        elif name in SPANS:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        if name == "exactpoly.poly_gcd":
            out[f"{name}.nontrivial_ratio"] = outcome / calls if calls else 0.0
        if name == "exactpoly.poly_divmod":
            out[f"{name}.exact_ratio"] = outcome / calls if calls else 0.0
    out["apostol.check_weighted_sum_identities.calls"] = spans.get(
        "apostol.check_weighted_sum_identities", [0])[0]
    for layer in ("cli", "verify", "zetaprod", "dirichlet", "exactpoly", "arith",
                  "apostol", "etaprod", "weights", "catalog"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for key, (hits, misses) in caches.items():
        calls = hits + misses
        out[f"{key}.hit_ratio"] = hits / calls if calls else 0.0
        if key == "exactpoly.cyclotomic":
            out[f"{key}.calls"] = calls
    return out

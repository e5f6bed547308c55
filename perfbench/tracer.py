"""Per-layer tracing of the ``precedence`` package from outside it.

The tracer replaces every binding of the traced functions (module globals,
re-exports such as ``construction.alpha_family_ls`` or the package's own
``precedence.alpha_family_ls``, and class attributes) with a timing
wrapper, and puts every binding back on :meth:`Tracer.uninstall`. Nothing
inside the package changes; a caller that resolves the name at call time
reaches the wrapper.

Three kinds of target:

* span: one record per call (name, start, end, parent span, job id), kept
  in memory and written out by :meth:`Tracer.write_spans`;
* leaf: hot helpers, counted per name with summed self time but no record
  per call;
* gen: a generator function; each ``next()`` is timed like a leaf.

Self time is a frame's duration minus the time covered by the frames it
called, leaves included, so the self times of all frames add up to the
traced time without double counting.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

# The layer functions the workloads reach: (module, attribute path, kind).
# A method is "Class.method"; a bare class name traces its
# ``__post_init__`` (the dataclass validation). Targets missing from the
# package are skipped and listed in ``Tracer.missing``.
TARGETS = [
    ("cli", "main", "span"),
    ("core", "rational_parse", "leaf"),
    ("core", "rational_format", "leaf"),
    ("core", "check_dimension", "leaf"),
    ("core", "validate_permutation", "leaf"),
    ("core", "validate_prefix", "leaf"),
    ("core", "subset_members", "leaf"),
    ("core", "subsets_of_size_at_least", "leaf"),
    ("core", "enumerate_d", "leaf"),
    ("core", "SubsetMask", "leaf"),
    ("permdist", "PermutationDistribution", "span"),
    ("permdist", "WinningProbabilityFamily", "span"),
    ("permdist", "PermutationDistribution.prefix_marginals", "span"),
    ("permdist", "alpha_family", "span"),
    ("permdist", "alpha_family_bruteforce", "span"),
    ("loadsharing", "EpsilonSchedule", "span"),
    ("loadsharing", "OrderDependentLSModel", "span"),
    ("loadsharing", "SetInvariantLSModel", "span"),
    ("loadsharing", "OrderDependentLSModel.rate", "leaf"),
    ("loadsharing", "SetInvariantLSModel.rate", "leaf"),
    ("loadsharing", "total_rate", "leaf"),
    ("loadsharing", "model_from_json_dict", "span"),
    ("loadsharing", "prefix_probability", "span"),
    ("loadsharing", "distribution_of", "span"),
    ("loadsharing", "alpha_family_ls", "span"),
    ("loadsharing", "beta_gamma_split", "span"),
    ("loadsharing", "check_prefix_bounds", "span"),
    ("construction", "invert_to_ls", "span"),
    ("construction", "epsilon_schedule", "span"),
    ("construction", "check_epsilon_condition", "span"),
    ("construction", "build_ls_epsilon", "span"),
    ("construction", "certify_concordance", "span"),
    ("ranking", "RankingFunction", "leaf"),
    ("ranking", "RankingPattern", "span"),
    ("ranking", "score_concordance", "span"),
    ("ranking", "induced_pattern", "span"),
    ("ranking", "check_p_concordance", "span"),
    ("ranking", "pattern_very_paradox", "span"),
    ("ranking", "pattern_cyclic", "span"),
    ("voting", "VotingSituation", "span"),
    ("voting", "tally", "span"),
    ("voting", "check_n_concordance", "span"),
    ("voting", "synthesize_voting_situation", "span"),
    ("signature", "StructureFunction", "span"),
    ("signature", "failure_step", "leaf"),
    ("signature", "probability_signature", "span"),
    ("montecarlo", "sample_trajectories", "gen"),
    ("montecarlo", "estimate_alphas", "span"),
]

# Every class method with one of these names is traced as a span of the
# module that defines the class, and joins the named group.
DISCOVERED = {
    "from_json_dict": "parse",
    "from_json_list": "parse",
    "to_json_dict": "format",
    "to_json_list": "format",
}

# Groups whose inclusive time (outermost frames only) is reported.
GROUPS = {
    "json.load": "parse",
    "loadsharing.model_from_json_dict": "parse",
    "json.dump": "format",
    "montecarlo.sample_trajectories": "montecarlo",
    "montecarlo.estimate_alphas": "montecarlo",
}


def _frame_name(module: str, path: str) -> str:
    """``loadsharing.rate`` for a method, ``loadsharing.SetInvariantLSModel`` for a class."""
    return f"{module}.{path.split('.')[-1]}"


class Tracer:
    """Timing wrappers around the package's layer functions."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # child time of each open frame
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.open_span = -1
        self.job: str | None = None
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.group_time: dict[str, float] = {}
        self.group_depth: dict[str, int] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, record_span: bool, group: str | None = None):
        stats = self.stats.setdefault(name, [0, 0.0])
        group = group or GROUPS.get(name)
        if group is not None:
            self.group_time.setdefault(group, 0.0)
            self.group_depth.setdefault(group, 0)
        stack = self.stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if record_span:
                parent = tracer.open_span
                index = len(spans)
                spans.append(None)
                tracer.open_span = index
            if group is not None:
                outermost = tracer.group_depth[group] == 0
                tracer.group_depth[group] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
                if record_span:
                    spans[index] = (name, start, end, parent, tracer.job)
                    tracer.open_span = parent
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if outermost:
                        tracer.group_time[group] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_gen(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            step = tracer._wrap(name, fn(*args, **kwargs).__next__, record_span=False)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # --- binding replacement ----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, record_span: bool, group=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapper = self._wrap(name, raw.__func__, record_span, group)
            self._set(cls, attr, classmethod(wrapper))
        else:
            self._set(cls, attr, self._wrap(name, raw, record_span, group))

    def install(self, package: types.ModuleType) -> None:
        """Wrap every binding of every target in ``package`` and its submodules."""
        prefix = package.__name__ + "."
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(prefix))
        ]
        for short, path, kind in TARGETS:
            module = sys.modules.get(prefix + short)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            target = getattr(owner, parts[-1], None) if owner is not None else None
            if target is None:
                self.missing.append(f"{short}.{path}")
                continue
            name = _frame_name(short, path)
            if isinstance(target, type):
                if "__post_init__" not in vars(target):
                    self.missing.append(f"{short}.{path}.__post_init__")
                    continue
                self._patch_method(target, "__post_init__", name, kind == "span")
            elif len(parts) > 1:
                self._patch_method(owner, parts[-1], name, kind == "span")
            elif kind == "gen":
                self._patch_function(modules, target, self._wrap_gen(name, target))
            else:
                self._patch_function(modules, target, self._wrap(name, target, kind == "span"))
        for module in modules:
            short = module.__name__[len(prefix):] if module is not package else ""
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module.__name__:
                    continue
                for attr, group in DISCOVERED.items():
                    if attr in vars(cls):
                        self._patch_method(cls, attr, f"{short}.{attr}", True, group)
        cli = sys.modules.get(prefix + "cli")
        if cli is not None and isinstance(getattr(cli, "json", None), types.ModuleType):
            proxy = types.SimpleNamespace(**vars(cli.json))
            proxy.load = self._wrap("json.load", cli.json.load, record_span=True)
            proxy.dump = self._wrap("json.dump", cli.json.dump, record_span=True)
            self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        """Put back every binding :meth:`install` replaced, newest first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # --- readout ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def module_self_time(self, module: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.startswith(module + "."))

    def write_spans(self, path) -> None:
        """One JSON line per span, with times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "job": job,
                        }
                    )
                )
                fh.write("\n")

"""Call-site tracer for the benchmark's traced run.

adasketch modules bind names at import (``from .spotting import spot``), so
the tracer replaces each name where it is *called* (``adasketch.discover.spot``,
``adasketch.adaptive.discover``, ...) with a timing wrapper, and puts the
original back on :meth:`Tracer.remove`. Every call becomes a span
``(name, start, end, parent, trial)`` kept in memory; :meth:`Tracer.write`
saves them when the run ends. A call site that no longer exists (a later
refactor renamed or removed it) is recorded in :attr:`Tracer.absent` and its
metrics are reported as absent; the run does not fail.

Per-layer metrics are folded per trial by :meth:`Tracer.finish_trial`, which
runs between trials, outside every span, so the checks and eligibility
counts it makes are not charged to any layer.
"""

from __future__ import annotations

import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (owner, attribute, span name); an owner is an ``adasketch`` submodule, or
# ``module:Class`` for a method or property.
CALL_SITES = (
    ("harness", "estimate_error", "harness.trial"),
    ("harness", "gen_vector", "families.gen_vector"),
    ("harness:Method", "run", "harness.Method.run"),
    ("adaptive", "approximate", "adaptive.approximate"),
    ("adaptive", "discover", "discover.pass"),
    ("discover", "equi_ranks", "hashing.equi_ranks"),
    ("discover", "equi_partition", "hashing.equi_partition"),
    ("hashing", "equi_ranks", "hashing.equi_ranks"),
    ("discover", "spot", "spotting.spot"),
    ("oracle:MeasurementOracle", "measure_rows", "oracle.measure_rows"),
    ("oracle:MeasurementOracle", "read_entries", "oracle.read_entries"),
    ("discover", "rademacher", "rng.rademacher"),
    ("precondition", "rademacher", "rng.rademacher"),
    ("nonadaptive", "rademacher", "rng.rademacher"),
    ("families", "rademacher", "rng.rademacher"),
    ("rng:RngStream", "generator", "rng.generator"),
    ("nonadaptive", "linsketch", "nonadaptive.linsketch"),
    ("nonadaptive", "countsketch", "nonadaptive.countsketch"),
    ("nonadaptive", "keep_largest", "nonadaptive.keep_largest"),
)

# child spans subtracted from a parent's duration to give its self time
_NOT_SELF = {
    "harness.trial": ("families.gen_vector", "harness.Method.run"),
    "adaptive.approximate": ("discover.pass",),
    "discover.pass": ("hashing.equi_ranks", "hashing.equi_partition",
                      "spotting.spot"),
}

PRECONDITIONED = "preconditioned"
ORACLE_STAGES = ("precond", "spot", "reads", "linsketch", "countsketch")

# (metric, unit, span names it needs), in report order; a metric whose span
# is not wrapped, or whose ratio has no denominator, is reported absent
_METRICS = (
    ("families.gen_vector_ms", "ms/trial", ("families.gen_vector",)),
    ("hashing.equi_ranks_ms", "ms/trial", ("hashing.equi_ranks",)),
    ("hashing.equi_partition_ms", "ms/trial", ("hashing.equi_partition",)),
    ("hashing.calls", "count/trial",
     ("discover.pass", "hashing.equi_ranks", "hashing.equi_partition")),
    ("precondition.filter_ms", "ms/trial",
     ("discover.pass", "hashing.equi_ranks", "hashing.equi_partition",
      "spotting.spot")),
    ("precondition.measure_rows_calls", "count/trial", ("oracle.measure_rows",)),
    ("precondition.survivor_sets", "count/trial", ("discover.pass", "spotting.spot")),
    ("precondition.survivors", "count/trial", ("discover.pass", "spotting.spot")),
    ("spotting.spot_ms", "ms/trial", ("spotting.spot",)),
    ("spotting.spot_calls", "count/trial", ("spotting.spot",)),
    ("spotting.spot_free_calls", "count/trial", ("spotting.spot",)),
    ("spotting.spot_hit_rate", "frac", ("spotting.spot",)),
    ("discover.pass_ms", "ms/pass", ("discover.pass",)),
    ("discover.passes", "count/trial", ("discover.pass",)),
    ("discover.detected", "count/pass", ("discover.pass",)),
    ("discover.eligible", "count/pass", ("discover.pass", "families.gen_vector")),
    ("discover.detect_rate", "frac", ("discover.pass", "families.gen_vector")),
    ("adaptive.approximate_ms", "ms/trial", ("adaptive.approximate",)),
    ("adaptive.self_ms", "ms/trial", ("adaptive.approximate", "discover.pass")),
    ("adaptive.reads", "count/trial", ("adaptive.approximate", "oracle.read_entries")),
    ("oracle.measure_rows_ms", "ms/trial", ("oracle.measure_rows",)),
    ("oracle.measure_rows_calls", "count/trial", ("oracle.measure_rows",)),
    *((f"oracle.cost.{stage}", "count/trial", ()) for stage in ORACLE_STAGES),
    ("rng.generators", "count/trial", ("rng.generator",)),
    ("rng.generator_ms", "ms/trial", ("rng.generator",)),
    ("rng.rademacher_ms", "ms/trial", ("rng.rademacher",)),
    ("rng.rademacher_bits", "count/trial", ("rng.rademacher",)),
    ("nonadaptive.linsketch_ms", "ms/trial", ("nonadaptive.linsketch",)),
    ("nonadaptive.countsketch_ms", "ms/trial", ("nonadaptive.countsketch",)),
    ("nonadaptive.keep_largest_ms", "ms/trial", ("nonadaptive.keep_largest",)),
    ("harness.self_ms", "ms/trial",
     ("harness.trial", "families.gen_vector", "harness.Method.run")),
    ("trace.overhead_frac", "frac", ()),
)
LAYER_METRICS = {name: unit for name, unit, _ in _METRICS}


def _resolve(package, owner):
    # by module path: the package attribute ``adasketch.discover`` is the
    # function that ``__init__`` re-exports, not the module
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


class Tracer:
    """Wraps adasketch call sites, records spans and folds per-layer totals.

    Spans are kept column-wise in typed arrays (about 33 bytes each), since
    the basic variant alone makes thousands of ``spot`` calls per trial.
    """

    def __init__(self):
        self.names = []             # span name of each kind id
        self.kind = array("B")      # per span: index into ``names``
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")    # index of the enclosing span, or -1
        self.trial_of = array("l")
        self.absent = []            # span names whose call site was not found
        self.failures = []          # (trial, reason) from the output check
        self._trial = [-1]
        self._stack = []
        self._facts = {}            # span index -> what the observer kept
        self._patches = []          # (owner, attribute, original class-dict value)
        self._trial_first_span = 0
        self._totals = Counter()
        self._trials = 0

    # -- installing and removing wrappers ---------------------------------

    def install(self, package):
        """Wrap every call site in :data:`CALL_SITES` inside ``package``."""
        observers = {
            "families.gen_vector": lambda args, kwargs, out: out,
            "harness.Method.run": lambda args, kwargs, out: (args[0].name, out),
            "discover.pass": lambda args, kwargs, out: (args[1].variant, args[1].eps, out),
            "spotting.spot": lambda args, kwargs, out: (len(args[1]), out.size),
            "oracle.measure_rows": lambda args, kwargs, out: kwargs.get("stage"),
            "oracle.read_entries": lambda args, kwargs, out: len(args[1]),
            "rng.rademacher": lambda args, kwargs, out: out.size,
        }
        wrapped = set()
        for owner_path, attr, name in CALL_SITES:
            owner = _resolve(package, owner_path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            if name not in self.names:
                self.names.append(name)
            kind = self.names.index(name)
            if isinstance(original, property):
                replacement = self._materializing(original, kind)
            else:
                replacement = self._timed(original, kind, observers.get(name))
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
            wrapped.add(name)
        self.absent = sorted({name for _, _, name in CALL_SITES} - wrapped)

    def remove(self):
        """Put every original name back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _timed(self, fn, kind, observe):
        kinds, starts, ends = self.kind, self.start, self.end
        parents, trials, trial = self.parent, self.trial_of, self._trial
        stack, facts = self._stack, self._facts

        def wrapper(*args, **kwargs):
            index = len(starts)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            trials.append(trial[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                facts[index] = observe(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _materializing(self, prop, kind):
        """Time a lazily cached property only on the access that fills it."""
        timed = self._timed(prop.fget, kind, None)

        def fget(obj):
            if getattr(obj, "_generator", None) is not None:
                return prop.fget(obj)
            return timed(obj)

        return property(fget, doc=prop.__doc__)

    # -- folding ---------------------------------------------------------------

    def start_trial(self, trial):
        self._trial[0] = trial
        self._trial_first_span = len(self.start)

    def finish_trial(self, stage_costs):
        """Fold this trial's spans into totals and check adaptive outputs."""
        first, count = self._trial_first_span, len(self.start)
        names = [self.names[k] for k in self.kind[first:count]]
        name_of = dict(zip(range(first, count), names))
        starts, ends, parents = self.start, self.end, self.parent
        facts, totals = self._facts, self._totals
        self._trials += 1
        for stage, amount in (stage_costs or {}).items():
            totals[f"cost.{stage}"] += amount

        hidden = None
        not_self = Counter()
        preconditioned = set()
        for index, name in name_of.items():
            parent = parents[index]
            if parent >= 0 and name in _NOT_SELF.get(name_of[parent], ()):
                not_self[parent] += ends[index] - starts[index]
            fact = facts.get(index)
            if fact is None:  # the call raised, or the span has no observer
                continue
            if name == "families.gen_vector":
                hidden = fact
            elif name == "discover.pass" and fact[0] == PRECONDITIONED:
                preconditioned.add(index)
        magnitude = None if hidden is None else np.abs(hidden)

        for index, name in name_of.items():
            seconds = ends[index] - starts[index]
            parent = parents[index]
            parent_name = name_of[parent] if parent >= 0 else None
            fact = facts.pop(index, None)
            totals[f"s.{name}"] += seconds
            totals[f"n.{name}"] += 1
            if name in _NOT_SELF:
                totals[f"self.{name}"] += seconds - not_self[index]
            if name.startswith("hashing.") and parent_name == "discover.pass":
                totals["hash_draws"] += 1
            if fact is None:
                continue
            if name == "discover.pass":
                _, eps, found = fact
                totals["detected"] += found.size
                if magnitude is not None:
                    totals["eligible"] += int(np.count_nonzero(magnitude >= eps))
                    totals["eligible_found"] += int(
                        np.count_nonzero(magnitude[found] >= eps))
            elif name == "spotting.spot":
                size, out_size = fact
                totals["spot_free"] += size <= 1
                if size >= 2:
                    totals["spot_multi"] += 1
                    totals["spot_hits"] += out_size > 0
                if parent in preconditioned:
                    totals["survivor_sets"] += 1
                    totals["survivors"] += size
            elif name == "oracle.measure_rows":
                totals["precond_rows_calls"] += fact == "precond"
            elif name == "oracle.read_entries":
                if parent_name == "adaptive.approximate":
                    totals["reads"] += fact
            elif name == "rng.rademacher":
                totals["bits"] += fact
            elif name == "harness.Method.run":
                method, out = fact
                if method == "adaptive" and hidden is not None:
                    support = np.flatnonzero(out)
                    if not np.array_equal(out[support], hidden[support]):
                        self.failures.append(
                            (self._trial[0], "adaptive output differs from the "
                                             "hidden vector on its support"))

    def metrics(self, overhead_frac):
        """Per-layer metrics: ``{name: value}``, and the names reported absent."""
        t = self._totals
        trials = max(self._trials, 1)
        passes = t["n.discover.pass"]

        def per_trial_ms(name):
            return 1e3 * t[f"s.{name}"] / trials

        def ratio(num, den):
            return num / den if den else math.nan

        values = {
            "families.gen_vector_ms": per_trial_ms("families.gen_vector"),
            "hashing.equi_ranks_ms": per_trial_ms("hashing.equi_ranks"),
            "hashing.equi_partition_ms": per_trial_ms("hashing.equi_partition"),
            "hashing.calls": t["hash_draws"] / trials,
            "precondition.filter_ms": 1e3 * t["self.discover.pass"] / trials,
            "precondition.measure_rows_calls": t["precond_rows_calls"] / trials,
            "precondition.survivor_sets": t["survivor_sets"] / trials,
            "precondition.survivors": t["survivors"] / trials,
            "spotting.spot_ms": per_trial_ms("spotting.spot"),
            "spotting.spot_calls": t["n.spotting.spot"] / trials,
            "spotting.spot_free_calls": t["spot_free"] / trials,
            "spotting.spot_hit_rate": ratio(t["spot_hits"], t["spot_multi"]),
            "discover.pass_ms": ratio(1e3 * t["s.discover.pass"], passes),
            "discover.passes": passes / trials,
            "discover.detected": ratio(t["detected"], passes),
            "discover.eligible": ratio(t["eligible"], passes),
            "discover.detect_rate": ratio(t["eligible_found"], t["eligible"]),
            "adaptive.approximate_ms": per_trial_ms("adaptive.approximate"),
            "adaptive.self_ms": 1e3 * t["self.adaptive.approximate"] / trials,
            "adaptive.reads": t["reads"] / trials,
            "oracle.measure_rows_ms": per_trial_ms("oracle.measure_rows"),
            "oracle.measure_rows_calls": t["n.oracle.measure_rows"] / trials,
            **{f"oracle.cost.{stage}": t[f"cost.{stage}"] / trials
               for stage in ORACLE_STAGES},
            "rng.generators": t["n.rng.generator"] / trials,
            "rng.generator_ms": per_trial_ms("rng.generator"),
            "rng.rademacher_ms": per_trial_ms("rng.rademacher"),
            "rng.rademacher_bits": t["bits"] / trials,
            "nonadaptive.linsketch_ms": per_trial_ms("nonadaptive.linsketch"),
            "nonadaptive.countsketch_ms": per_trial_ms("nonadaptive.countsketch"),
            "nonadaptive.keep_largest_ms": per_trial_ms("nonadaptive.keep_largest"),
            "harness.self_ms": 1e3 * t["self.harness.trial"] / trials,
            "trace.overhead_frac": overhead_frac,
        }
        missing = set(self.absent)
        absent = sorted(
            metric for metric, _, needs in _METRICS
            if missing.intersection(needs) or math.isnan(values[metric]))
        return values, absent

    def write(self, path, **meta):
        """Save the spans as columns of one ``.npz`` file (``names[kind]``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 kind=np.frombuffer(self.kind, dtype=np.uint8),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 trial=np.frombuffer(self.trial_of, dtype=np.int64),
                 **{key: np.array(value) for key, value in meta.items()})

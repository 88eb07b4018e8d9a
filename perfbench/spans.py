"""Span tracing of the mpgames layers from outside the package.

`Tracer.install()` replaces every binding of each traced function (the
defining module's attribute and every module that imported it by name) and
the traced methods with a wrapper that records one span: name, start, end,
parent span and operation id.  Spans stay in memory until `save()`.  Self
time (span time minus the time covered by child spans) and the per-layer
counts are kept as the spans close.  `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# mpgames modules whose namespaces are scanned for bindings of traced
# functions (graphs is cheap and cex only builds inputs: neither is traced)
MODULES = ("cli", "stochastic", "_smpgfast", "iteration", "dominion",
           "oracle", "numeric", "entropy", "perron", "linalg")

# (defining module, function name, span name)
FUNCTIONS = (
    ("stochastic", "parse_smpg", "stochastic.parse_smpg"),
    ("stochastic", "induced_subgame", "stochastic.induced_subgame"),
    ("stochastic", "shapley_eval", "stochastic.shapley_eval"),
    ("stochastic", "check_certificate", "stochastic.check_certificate"),
    ("stochastic", "solve_constant_value", "stochastic.solve_constant_value"),
    ("iteration", "approximate_constant_mean_payoff",
     "iteration.approximate_constant_mean_payoff"),
    ("dominion", "top_class", "dominion.top_class"),
    ("dominion", "decide_constant_value", "dominion.decide_constant_value"),
    ("dominion", "extend", "dominion.extend"),
    ("oracle", "restrict", "oracle.restrict"),
    ("numeric", "rational_in_interval", "numeric.rational_in_interval"),
    ("entropy", "parse_entropy", "entropy.parse_entropy"),
    ("entropy", "solve_entropy_game", "entropy.solve_entropy_game"),
    ("entropy", "rank_profile", "entropy.rank_profile"),
    ("entropy", "brute_force_entropy_values",
     "entropy.brute_force_entropy_values"),
    ("entropy", "matrix_values", "entropy.matrix_values"),
    ("entropy", "certified_log_sum_exp", "entropy.certified_log_sum_exp"),
    ("entropy", "exp_bounds", "entropy.exp_bounds"),
    ("entropy", "check_entropy_certificate",
     "entropy.check_entropy_certificate"),
    ("perron", "perron_root", "perron.perron_root"),
    ("linalg", "integer_rank", "linalg.integer_rank"),
)

# (module, class, method, span name)
METHODS = (
    ("_smpgfast", "Kernel", "__init__", "smpgfast.Kernel.init"),
    ("_smpgfast", "Kernel", "gap_loop", "smpgfast.Kernel.gap_loop"),
    ("_smpgfast", "Kernel", "replay_loop", "smpgfast.Kernel.replay_loop"),
    ("oracle", "ShapleyOracle", "eval", "oracle.ShapleyOracle.eval"),
)

# click commands: the span wraps the command callback
COMMANDS = (("solve", "cli.solve"), ("certify", "cli.certify"))

LSE = "entropy.certified_log_sum_exp"


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _count_gap(tr, result, args):
    u, ell, _ = result
    tr.counts["smpgfast.Kernel.gap_loop.steps"] += int(ell)
    tr.max_bits = max(tr.max_bits, _bits(u))


def _count_replay(tr, result, args):
    ell = args[2]  # (self, q, ell, b_num, t_num)
    tr.counts["smpgfast.Kernel.replay_loop.steps"] += max(int(ell) - 1, 0)
    tr.max_bits = max(tr.max_bits, _bits(result[0]), _bits(result[1]))


def _count_acmp(tr, result, args):
    tr.counts["iteration.approximate_constant_mean_payoff.iterations"] += (
        result.iterations)


def _count_decide(tr, result, args):
    tr.counts["dominion.decide_constant_value.iterations"] += result.iterations
    if result.low_set is not None:
        tr.counts["dominion.decide_constant_value.cap_runs"] += 1


def _count_top_class(tr, result, args):
    tr.counts["dominion.top_class.oracle_calls"] += result[1]


def _count_extend(tr, result, args):
    tr.counts["dominion.extend.oracle_calls"] += result[1]


def _count_rank(tr, result, args):
    tr.counts["entropy.rank_profile.selections"] += result.selections


def _count_brute(tr, result, args):
    tr.counts["entropy.brute_force_entropy_values.pairs"] += result.pair_count


ON_RETURN = {
    "smpgfast.Kernel.gap_loop": _count_gap,
    "smpgfast.Kernel.replay_loop": _count_replay,
    "iteration.approximate_constant_mean_payoff": _count_acmp,
    "dominion.decide_constant_value": _count_decide,
    "dominion.top_class": _count_top_class,
    "dominion.extend": _count_extend,
    "entropy.rank_profile": _count_rank,
    "entropy.brute_force_entropy_values": _count_brute,
}


# per-layer metrics: self time of every span but `oracle.restrict`, call
# counts of these spans, and the work counts taken from return values
SELF_S = tuple(s for _, s in COMMANDS) + tuple(
    s for *_, s in FUNCTIONS + METHODS if s != "oracle.restrict")
CALLS = (
    "stochastic.induced_subgame", "stochastic.shapley_eval",
    "stochastic.check_certificate", "smpgfast.Kernel.init",
    "iteration.approximate_constant_mean_payoff",
    "dominion.decide_constant_value", "oracle.ShapleyOracle.eval",
    "oracle.restrict", "numeric.rational_in_interval", "entropy.matrix_values",
    LSE, "entropy.exp_bounds", "entropy.check_entropy_certificate",
    "perron.perron_root", "linalg.integer_rank",
)
COUNTS = (
    "smpgfast.Kernel.gap_loop.steps",
    "smpgfast.Kernel.replay_loop.steps",
    "iteration.approximate_constant_mean_payoff.iterations",
    "dominion.decide_constant_value.iterations",
    "dominion.decide_constant_value.cap_runs",
    "dominion.top_class.oracle_calls",
    "dominion.extend.oracle_calls",
    "entropy.rank_profile.selections",
    "entropy.brute_force_entropy_values.pairs",
)

# (name, unit, better) of every per-layer metric, the tracing overhead
# (added by the runner) included
PER_LAYER = (
    tuple((s + ".self_s", "s", "lower") for s in SELF_S)
    + tuple((s + ".calls", "count", "lower") for s in CALLS)
    + tuple((c, "count", "lower") for c in COUNTS)
    + (("smpgfast.step_us", "us", "lower"),
       ("smpgfast.max_num_bits", "bits", "lower"),
       (LSE + ".interval_share", "ratio", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.overhead_share", "ratio", "lower"))
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # open frames: [span index, name id, child time, flag]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.op = -1
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name, fn):
        nid = self._nid(name)
        on_return = ON_RETURN.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, nid, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.self_time[nid] += (t1 - t0) - frame[2]
                tracer.calls[nid] += 1
                if frame[3]:
                    tracer.counts[LSE + ".interval_calls"] += 1
                if stack:
                    stack[-1][2] += t1 - t0
            if on_return is not None:
                on_return(tracer, result, args)
            return result

        return traced

    def _mark_interval(self, fn):
        """Counts nothing itself: flags the enclosing log-sum-exp span as
        one that took the interval path."""
        lse = self._nid(LSE)
        stack = self.stack

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if stack and stack[-1][1] == lse:
                stack[-1][3] = True
            return fn(*args, **kwargs)

        return marked

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"mpgames.{m}") for m in MODULES}
        namespaces = [importlib.import_module("mpgames")] + list(mods.values())
        for mod, fname, span in FUNCTIONS:
            orig = getattr(mods[mod], fname)
            traced = self.wrap(span, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, attr, traced)
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(mods[mod], cls_name)
            self._patch(cls, meth, self.wrap(span, vars(cls)[meth]))
        for cmd, span in COMMANDS:
            command = mods["cli"].main.commands[cmd]
            self._patch(command, "callback", self.wrap(span, command.callback))
        import mpmath

        self._patch(mpmath.iv, "log", self._mark_interval(mpmath.iv.log))

    def uninstall(self):
        while self._patches:
            owner, attr, orig, had = self._patches.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass averages of every per-layer metric except the tracing
        overhead, which the runner adds."""
        def self_s(span):
            return self.self_time.get(self._name_id.get(span), 0.0) / passes

        def calls(span):
            return self.calls.get(self._name_id.get(span), 0) / passes

        def count(key):
            return self.counts.get(key, 0) / passes

        out = {span + ".self_s": self_s(span) for span in SELF_S}
        out.update({span + ".calls": calls(span) for span in CALLS})
        out.update({key: count(key) for key in COUNTS})
        steps = (count("smpgfast.Kernel.gap_loop.steps")
                 + count("smpgfast.Kernel.replay_loop.steps"))
        loop_s = (self_s("smpgfast.Kernel.gap_loop")
                  + self_s("smpgfast.Kernel.replay_loop"))
        out["smpgfast.step_us"] = 1e6 * loop_s / steps if steps else 0.0
        out["smpgfast.max_num_bits"] = self.max_bits
        lse_calls = calls(LSE)
        out[LSE + ".interval_share"] = (
            count(LSE + ".interval_calls") / lse_calls if lse_calls else 0.0)
        return out

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


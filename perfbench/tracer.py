"""Spans around the program's layer boundaries, recorded from outside it.

Each traced function is replaced, for the length of a traced run, by a
wrapper on the module or class attribute its callers look up (protocol
calls `fbsc.encrypt_stream`, `nist_battery` calls its tests through the
`nist` module globals, methods are looked up on their class). A wrapper
records one span: name, start, end, parent span and the benchmark
operation it ran under. Spans stay in memory; `write` puts them in a file
when the run ends. Self time is a span's duration minus the durations of
its direct children, which nest strictly in a single thread.
"""

import functools
import importlib
import json
import time
from collections import defaultdict


def _arg(index, name):
    def get(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[name]
    return get


def _len_arg(index, name):
    get = _arg(index, name)
    return lambda args, kwargs, result: len(get(args, kwargs, result))


def _len_result(args, kwargs, result):
    return len(result)


_NIST_TESTS = ("frequency_test", "block_frequency_test",
               "cumulative_sums_test", "runs_test", "longest_run_test",
               "rank_test", "dft_test", "non_overlapping_test",
               "overlapping_test", "universal_test",
               "approximate_entropy_test", "random_excursions_test",
               "random_excursions_variant_test", "linear_complexity_test",
               "serial_test")

# (span name, [(module, class or None, attribute)], reported fields,
#  size function for the `bytes` or `steps` field)
TRACED = [
    ("prng.generate_bytes", [("parvault.prng", None, "generate_bytes")],
     ("ms", "calls", "bytes"), _arg(1, "nbytes")),
    ("prng.pad_message", [("parvault.prng", None, "pad_message")],
     ("ms",), None),
    ("fbsc.encrypt_stream", [("parvault.fbsc", None, "encrypt_stream")],
     ("ms", "bytes"), _len_arg(0, "data")),
    ("fbsc.decrypt_stream", [("parvault.fbsc", None, "decrypt_stream")],
     ("ms", "bytes"), _len_arg(0, "elements")),
    ("fbsc.serialize_blob", [("parvault.fbsc", None, "serialize_blob")],
     ("ms", "bytes"), _len_result),
    ("fbsc.parse_blob", [("parvault.fbsc", None, "parse_blob")],
     ("ms", "bytes"), _len_arg(0, "raw")),
    ("fbsc.generate_key", [("parvault.fbsc", None, "generate_key")],
     ("calls",), None),
    ("fbsc.involute", [("parvault.fbsc", None, "involute")],
     ("ms", "calls"), None),
    ("fbsc.anti_involute", [("parvault.fbsc", None, "anti_involute")],
     ("ms", "calls"), None),
    ("secretshare.derive_coefficients",
     [("parvault.secretshare", None, "derive_coefficients")], ("ms",), None),
    ("secretshare.generate_points",
     [("parvault.secretshare", None, "generate_points")], ("ms",), None),
    ("secretshare.binding_code",
     [("parvault.secretshare", None, "binding_code")], ("ms", "calls"), None),
    ("secretshare.reconstruct_secret",
     [("parvault.secretshare", None, "reconstruct_secret")],
     ("ms", "calls"), None),
    ("rsacrt.keygen", [("parvault.rsacrt", None, "keygen")],
     ("ms", "calls"), None),
    ("rsacrt.is_probable_prime",
     [("parvault.rsacrt", None, "is_probable_prime")], ("ms", "calls"), None),
    ("rsacrt.wrap", [("parvault.rsacrt", None, "wrap")],
     ("ms", "calls"), None),
    ("rsacrt.crt_recombine", [("parvault.rsacrt", None, "crt_recombine")],
     ("ms", "calls"), None),
]
TRACED += [(f"acl.PolicyDb.{m}", [("parvault.acl", "PolicyDb", m)],
            ("ms", "calls"), None)
           for m in ("check_access", "snapshot", "register_user")]
TRACED += [(f"protocol.Simulation.{m}", [("parvault.protocol", "Simulation", m)],
            ("ms",), None)
           for m in ("register", "store_file", "request_access",
                     "revoke_and_reencrypt", "re_grant")]
TRACED += [
    ("protocol.MessageBus.send", [("parvault.protocol", "MessageBus", "send")],
     ("calls",), None),
    ("protocol.replay_commands",
     [("parvault.protocol", None, "replay_commands")], ("ms", "steps"),
     _len_arg(1, "steps")),
    ("cli.main", [("parvault.cli", None, "main")], ("ms",), None),
    ("statsuite.nist_battery", [("parvault.statsuite", None, "nist_battery")],
     ("ms",), None),
]
TRACED += [(f"statsuite.{t}", [("parvault.statsuite.nist", None, t)],
            ("ms",), None) for t in _NIST_TESTS]
TRACED += [
    ("statsuite.element_bytes",
     [("parvault.statsuite", None, "element_bytes"),
      ("parvault.statsuite.pixels", None, "element_bytes")], ("ms",), None),
    ("statsuite.adjacent_correlation",
     [("parvault.statsuite", None, "adjacent_correlation")], ("ms",), None),
    ("statsuite.histogram_chi_square",
     [("parvault.statsuite", None, "histogram_chi_square")], ("ms",), None),
]

PRIME_YIELD = "rsacrt.prime_yield"
_UNITS = {"ms": "ms", "calls": "count", "bytes": "bytes", "steps": "count"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, _targets, fields, _size in TRACED:
        out.extend((f"{name}.{f}", _UNITS[f]) for f in fields)
        if name == "rsacrt.is_probable_prime":
            out.append((PRIME_YIELD, "ratio"))
    return out


class Tracer:
    """Installs the wrappers, records spans, aggregates per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.sizes = defaultdict(int)
        self.primes_accepted = 0
        self.op = 0
        self.active = True  # off while the benchmark checks outputs
        self._stack = []
        self._undo = []

    def install(self):
        for name, targets, _fields, size in TRACED:
            for module, cls, attr in targets:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, orig, size))
                self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack
        prime = name == "rsacrt.is_probable_prime"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                self.sizes[name] += size(args, kwargs, result)
            if prime and result:
                self.primes_accepted += 1
            return result
        return wrapper

    def per_layer(self):
        """{metric: {"value", "unit"}} for every name in metric_names()."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            self_s[name] += t1 - t0 - child[i]
            calls[name] += 1
        tested = calls["rsacrt.is_probable_prime"]
        out = {}
        for metric, unit in metric_names():
            base, _, field = metric.rpartition(".")
            if metric == PRIME_YIELD:
                value = self.primes_accepted / tested if tested else 0.0
            elif field == "ms":
                value = self_s[base] * 1e3
            elif field == "calls":
                value = calls[base]
            else:
                value = self.sizes[base]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """One JSON array per span: name, start and end in ns from the
        first span, parent index, operation id."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, round((t0 - t_base) * 1e9),
                                     round((t1 - t_base) * 1e9), parent, op])
                         + "\n")

"""Span tracing of hrpks from outside the package.

`Tracer.install()` replaces the public functions named in `SPANNED` with
wrappers that record one span per call: name, start and end
(`perf_counter_ns`), the enclosing span and the id of the benchmark
operation that caused it. Every module attribute bound to a wrapped
function is replaced, because `sigma`, `hierarchy`, `cli` and the package
root import `msm`, `rl_hash`, `hash_to_challenge` and others by name.

Three shims add counts that spans would make too costly or cannot see:

- a `pow` in the `curve_fp` namespace counts modular inversions
  (`pow(x, -1, p)`), about 1400 per verify at r = 8;
- a `pow` in the `sigma` namespace records every exponentiation other
  than an inverse mod q as an `sigma.aux_pow` span;
- a `hashlib` in the `encoding` and `revocation` namespaces counts the
  bytes fed to SHA-256 by `hash_to_challenge` and `rl_hash`.

Spans stay in memory; `write()` dumps them when the run ends.
`uninstall()` restores every patched attribute.
"""

import builtins
import functools
import hashlib
import json
import time
import types
from collections import Counter, defaultdict

import hrpks
from hrpks import (cli, curve_fp, encoding, hierarchy, modmath, revocation,
                   serial, sigma)

_PACKAGE = (cli, curve_fp, encoding, hierarchy, modmath, revocation, serial,
            sigma)


def _text_len(args, kwargs, out):
    text = args[0] if args else kwargs["text"]
    return len(text)


def _out_len(args, kwargs, out):
    return len(out)


# (module, function name, size of the call in bytes or None)
SPANNED = [
    (curve_fp, "msm", None),
    (curve_fp, "scalar_mul_fp", None),
    (curve_fp, "add_fp", None),
    (sigma, "sign", None),
    (sigma, "verify", None),
    (sigma, "collapse_constraints", None),
    (encoding, "hash_to_challenge", None),
    (revocation, "rl_hash", None),
    (revocation, "is_member_revoked", None),
    (revocation, "coalesce", None),
    (revocation, "revoke_group", None),
    (revocation, "revoke_member", None),
    (hierarchy, "verify_cert", None),
    (hierarchy, "join", None),
    (hierarchy, "gm_certify", None),
    (hierarchy, "add_department", None),
    (serial, "serialize_artifact", _out_len),
    (serial, "deserialize_artifact", _text_len),
    (modmath, "is_probable_prime", None),
    (modmath, "rank_mod", None),
    (modmath, "solve_affine_mod", None),
    (cli, "build_parser", None),
    (cli, "main", None),
]

_MISSING = object()

# Span records are lists: [name, start_ns, end_ns, parent index, op id, bytes]
NAME, START, END, PARENT, OP, NBYTES = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.op_kind = ""
        self.counts = Counter()  # (counter name, op kind) -> count
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, size=None, root=False):
        """Record a span per call made inside an operation (or, for the
        operation's own root span, per call); calls the benchmark makes
        between operations pass through untraced."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[NBYTES] = size(args, kwargs, out)
            return out
        return wrapper

    def op(self, op_id, kind, call):
        """Run one benchmark operation as the root span of its op id."""
        self.op_id, self.op_kind = op_id, kind
        return self._wrap(f"op.{kind}", call, root=True)()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        modules = list(_PACKAGE) + [hrpks]
        for module, fname, size in SPANNED:
            orig = getattr(module, fname)
            wrapper = self._wrap(f"{module.__name__.split('.')[-1]}.{fname}",
                                 orig, size)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapper)
        self._set(hierarchy.SystemParams, "digest",
                  self._wrap("hierarchy.SystemParams.digest",
                             hierarchy.SystemParams.digest))

        counts, stack = self.counts, self.stack
        real_pow = builtins.pow

        def curve_pow(base, exp, mod=None):
            if exp == -1 and stack:
                counts["curve_fp.inversions", self.op_kind] += 1
            return real_pow(base, exp, mod)
        self._set(curve_fp, "pow", curve_pow)

        aux_pow = self._wrap("sigma.aux_pow", real_pow)

        def sigma_pow(base, exp, mod=None):
            # exponent -1 is the inverse of a collapsed value mod q
            if exp == -1:
                return real_pow(base, exp, mod)
            return aux_pow(base, exp, mod)
        self._set(sigma, "pow", sigma_pow)

        for module in (encoding, revocation):
            key = f"{module.__name__.split('.')[-1]}.sha256_bytes"

            def sha256(data=b"", _key=key):
                if stack:
                    counts[_key, self.op_kind] += len(data)
                return hashlib.sha256(data)
            self._set(module, "hashlib", types.SimpleNamespace(sha256=sha256))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self.stack.clear()

    # -- analysis ----------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, total ns, self ns and bytes."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        calls, total, own, nbytes = (Counter(), Counter(), Counter(),
                                     Counter())
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            name = rec[NAME]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_ns[i]
            nbytes[name] += rec[NBYTES]
        return calls, total, own, nbytes

    def by_op_kind(self):
        """{op kind: {span name: [calls, total ns]}}."""
        root_kind = {}
        out = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for rec in self.spans:
            if rec[PARENT] < 0:
                root_kind[rec[OP]] = rec[NAME][len("op."):]
            cell = out[root_kind[rec[OP]]][rec[NAME]]
            cell[0] += 1
            cell[1] += rec[END] - rec[START]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "bytes"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")

"""Per-layer spans recorded from the benchmark's side of the package boundary.

``Tracer.install()`` replaces each traced public function or method with a
wrapper, under the name its callers look it up by: a module attribute for
``module.func`` calls (``spirallab.kernels.invert``), the importing module's
own binding for names imported with ``from ... import`` (``extensions.
newton_invert``, ``genext.sup_norm_Q``), and the class attribute for methods.
Spans stay in memory; the runner writes them out when the run ends.

A span is ``[name, start, end, parent, count, ...]``: ``parent`` indexes the
innermost open span, ``count`` is the work done (points, steps, bytes) taken
from the call's arguments or result; ``kernels.invert`` spans also carry the
number of NaN outputs (failed Newton solves).  A span's self time is its duration minus
that of its direct children, so the self times of all spans add up to the
root spans, one ``cli.main`` per verdict.
"""

from __future__ import annotations

import os
import re
import subprocess
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "report", "kernels", "families", "covering", "semigroups", "ode",
          "extensions", "genext", "sharp_bound")


def _size(z):
    return int(np.size(z))


def _nan(out):
    return int(np.count_nonzero(np.isnan(np.asarray(out))))


def _targets():
    """(owner, attribute, span name, count(args, result) or None)."""
    from spirallab import (cli, covering, extensions, families, genext, kernels, ode,
                           report, semigroups, sharp_bound)

    t = [(cli, "main", "cli.main", None)]
    t += [(report, "determinism_hash", "report.hash", None),
          (report, "write_report", "report.write", lambda a, out: os.path.getsize(a[0]))]
    for fn in ("eval_map", "eval_deriv", "eval_deriv2", "log_deriv"):
        t.append((kernels, fn, "kernels.eval", lambda a, out: _size(a[4])))
    t.append((kernels, "invert", "kernels.invert", lambda a, out: (_size(a[4]), _nan(out))))
    t.append((kernels, "covered_min_distance", "kernels.sweep",
              lambda a, out: int(a[6]) * int(a[7]) + int(a[7])))
    for m in ("eval", "deriv", "deriv2", "eval_array", "deriv_array", "deriv2_array",
              "log_deriv", "log_deriv_array", "invert", "invert_array"):
        t.append((families.UnivalentMap, m, "families.map", None))
    t.append((families, "continued_log_deriv", "families.continued_log", None))
    for owner in (families, extensions):
        t.append((owner, "newton_invert", "families.newton_invert", None))
    for owner in (families, covering):
        t.append((owner, "invert_map", "families.invert_map", None))
    for fn in ("normalize_at", "disk_automorphism"):
        t.append((families, fn, "families.other", None))
    for m in ("__call__", "array"):
        t.append((families.BranchedPower, m, "families.other", None))
    for fn in ("verify_covering_bound", "verify_shifted_covering_bound"):
        t.append((covering, fn, "covering.verify", None))
    t.append((covering, "omega_region_points", "covering.region", None))
    t.append((semigroups, "koenigs", "semigroups.koenigs_build", None))
    for fn in ("flow", "flow_many"):
        t.append((semigroups, fn, "semigroups.flow", None))
    for fn in ("berkson_porta_margin", "spirallike_margin", "schroder_residual"):
        t.append((semigroups, fn, "semigroups.other", None))
    for cls, methods in ((semigroups.KoenigsMap,
                          ("eval", "deriv", "deriv2", "log_deriv", "eval_array",
                           "deriv_array", "deriv2_array", "log_deriv_array", "invert")),
                         (semigroups._ConjugatedMap,
                          ("eval", "deriv", "deriv2", "eval_array", "deriv_array", "invert"))):
        for m in methods:
            t.append((cls, m, "semigroups.koenigs", lambda a, out: _size(a[1])))
    t.append((ode, "integrate", "ode.integrate", lambda a, out: int(out[1])))
    t.append((extensions, "verify_invariance", "extensions.invariance", None))
    for fn in ("membership_H_arrays", "membership_H"):
        t.append((extensions, fn, "extensions.membership", lambda a, out: _size(a[2])))
    for owner in (extensions, genext):
        t.append((owner, "sup_norm_Q", "extensions.sup_norm", None))
    for fn in ("sample_ball", "extend_H", "extend_H_arrays", "muir_extend"):
        t.append((extensions, fn, "extensions.other", None))
    t.append((genext, "conjugation_residual", "genext.conjugation",
              lambda a, out: len(a[2])))
    t.append((genext, "dh_tilde_identity_residual", "genext.dh_identity", None))
    t.append((genext, "flow_ball", "genext.flow_ball", None))
    t.append((genext.ExtendedGenerator, "__post_init__", "genext.build", None))
    for fn in ("infimum_f", "verify_cor_inequality", "f_sharp", "critical_points"):
        t.append((sharp_bound, fn, "sharp_bound.call", None))
    return t


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.enabled = False

    def install(self):
        for owner, attr, name, count in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, count))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                c = count(args, out)
                span[4:] = c if isinstance(c, tuple) else (c,)
            return out

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans):
    """Per-layer metrics of one round's spans."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = dur - child

    def outermost(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    incl = defaultdict(float)   # outermost spans of each name
    cnt = defaultdict(int)
    calls = defaultdict(int)
    own = defaultdict(float)    # self time per span name
    layer_self = dict.fromkeys(LAYERS, 0.0)
    nan = 0
    for i, s in enumerate(spans):
        name = s[0]
        layer_self[name.split(".")[0]] += self_t[i]
        own[name] += self_t[i]
        if outermost(i):
            incl[name] += dur[i]
            cnt[name] += s[4]
            calls[name] += 1
            if name == "kernels.invert":
                nan += s[5]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "kernels.sweep_s": incl["kernels.sweep"],
        "kernels.sweep_points": cnt["kernels.sweep"],
        "kernels.eval_s": incl["kernels.eval"],
        "kernels.eval_calls": calls["kernels.eval"],
        "kernels.eval_points": cnt["kernels.eval"],
        "kernels.invert_s": incl["kernels.invert"],
        "kernels.invert_points": cnt["kernels.invert"],
        "kernels.invert_nan": nan,
        "families.continued_log_s": incl["families.continued_log"],
        "families.continued_log_calls": calls["families.continued_log"],
        "covering.verify_s": own["covering.verify"],
        "semigroups.koenigs_s": incl["semigroups.koenigs"],
        "semigroups.koenigs_points": cnt["semigroups.koenigs"],
        "semigroups.flow_s": incl["semigroups.flow"],
        "ode.integrate_s": incl["ode.integrate"],
        "ode.integrate_calls": calls["ode.integrate"],
        "ode.steps": cnt["ode.integrate"],
        "extensions.invariance_s": incl["extensions.invariance"],
        "extensions.membership_s": incl["extensions.membership"],
        "extensions.membership_points": cnt["extensions.membership"],
        "extensions.sup_norm_s": incl["extensions.sup_norm"],
        "genext.conjugation_s": incl["genext.conjugation"],
        "genext.conjugation_points": cnt["genext.conjugation"],
        "genext.dh_identity_s": incl["genext.dh_identity"],
        "genext.flow_ball_s": incl["genext.flow_ball"],
        "genext.flow_ball_calls": calls["genext.flow_ball"],
        "sharp_bound.s": incl["sharp_bound.call"],
        "report.hash_s": incl["report.hash"],
        "report.write_s": incl["report.write"],
        "report.bytes": cnt["report.write"],
        "trace.self_sum_s": float(self_t.sum()),
        "trace.spans": n,
    })
    return m


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(cmd, env, cwd):
    """Self import time (s) summed per top-level package, from one fresh
    interpreter started with ``-X importtime``."""
    res = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                         timeout=120, check=True)
    per = defaultdict(float)
    for line in res.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            per[m.group(4).split(".")[0]] += int(m.group(1)) * 1e-6
    total = sum(per.values())
    out = {f"import.{pkg}_s": per[pkg] for pkg in ("numpy", "scipy", "spirallab")}
    out["import.other_s"] = total - sum(out.values())
    return out

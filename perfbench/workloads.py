"""The four workloads: inputs made from a seed, the operations that run them
through parryscope's public entry points, and the checks of every output.

A workload makes its inputs once per run, as a list of units; a unit is a
list of operations ``(key, setup, call)`` that run back to back.  Every pass
runs all units in an order shuffled by the seed.  ``setup`` runs untimed
before the operation and ``call`` is the timed operation; ``key`` names the
input and is the same in every pass.  ``summarize`` turns a raw result into a
hashable summary outside the timed region, and ``check`` judges each distinct
summary once, after the measurement, returning None or ``(kind, message)``
with kind ``"exit"`` (unexpected exit code) or ``"wrong"`` (wrong result).

Checks rest on ``oracle`` (written from the definitions) and on digests of
the mathematical fields recorded at the seed commit in ``expected.json``.
Provenance fields (prefix lengths, stabilization flags, methods) are never
compared, so a different factor engine is not flagged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import io
import json
from pathlib import Path

from parryscope import analysis, cli, numeration

import oracle

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def text(t) -> str:
    return "".join(map(str, t))


def parse_word(s: str) -> tuple:
    """Inverse of parryscope's word formatting: compact or comma separated."""
    if "," in s:
        return tuple(int(x) for x in s.split(","))
    return tuple(int(x) for x in s)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_cli(argv):
    """One in-process CLI invocation: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except AttributeError:  # not glibc
    _malloc_trim = None


def cold_start():
    """What a fresh process starts without: the factor cache, and freed heap
    memory still held by the C allocator (so peak RSS does not depend on the
    order in which earlier operations ran)."""
    analysis.clear_factor_cache()
    if _malloc_trim is not None:
        _malloc_trim(0)


def witness_math(body):
    return {"bundle": body["bundle"], "w0": body["verification"]["w0"]}


@functools.cache
def expected() -> dict:
    """Digests recorded at the seed commit: {workload: {key: digest}}."""
    return json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}


@functools.cache
def _prefix(base: str) -> bytes:
    return oracle.fixed_point(parse_word(base), 1 << 20)


class Workload:
    name = ""
    tail_pct = 0  # highest percentile that keeps >= 10 timed inputs beyond it
    pass_s = None  # seconds of one pass at the reference speed

    def units(self, rng):
        raise NotImplementedError

    def summarize(self, key, raw):
        return raw

    def check(self, key, summary):
        raise NotImplementedError

    def math_digest(self, key, summary) -> str:
        """Digest of the mathematical fields of a result, as kept in expected.json."""
        raise NotImplementedError

    def compare(self, key, summary):
        want = expected().get(self.name, {}).get(key)
        if want is not None and want != self.math_digest(key, summary):
            return ("wrong", f"{key}: result differs from the seed commit")
        return None


class ClassifyCold(Workload):
    name = "classify_cold"
    tail_pct = 84  # 66 inputs
    pass_s = 13.0
    bases = sorted(set(oracle.corpus(range(2, 5), 2))
                   | set(oracle.corpus(range(2, 5), 3, tm=lambda x: x >= 2)),
                   key=lambda t: (len(t), t))

    def units(self, rng):
        return [[(text(t), cold_start,
                  lambda s=text(t): run_cli(["classify", s, "--oracle-n", "30"]))]
                for t in self.bases]

    def math_digest(self, key, summary):
        rep = json.loads(summary[1])
        specials = rep["specials"]
        return digest({
            "verdict": rep["verdict"],
            "evidence": rep["evidence"],
            "complexity": rep["complexity"],
            "deltas": rep["deltas"],
            "specials": specials and {k: specials[k] for k in
                                      ("left_special_counts", "right_special_counts")},
            "witness": rep["witness"] and witness_math(rep["witness"]),
        })

    def check(self, key, summary):
        rc, out = summary
        if rc != 0:
            return ("exit", f"{key}: exit code {rc}")
        rep = json.loads(out)
        t = parse_word(key)
        m = len(t)
        affine = oracle.is_affine(t)
        verdict = rep["verdict"]
        if verdict["affine"] != affine:
            return ("wrong", f"{key}: verdict affine={verdict['affine']}")
        if affine and (verdict["slope"], verdict["intercept"]) != (m - 1, 1):
            return ("wrong", f"{key}: affine slope or intercept")
        reason = "tm_not_one" if t[-1] != 1 else "fractional_power"
        if not affine and verdict["reason"] != reason:
            return ("wrong", f"{key}: reason {verdict['reason']}")
        c = rep["complexity"]
        if len(c) != 30 or c[0] != m:
            return ("wrong", f"{key}: complexity profile shape")
        if affine and c != [(m - 1) * n + 1 for n in range(1, 31)]:
            return ("wrong", f"{key}: C(n) != (m-1)n+1")
        if rep["witness"]:
            w0 = bytes(parse_word(rep["witness"]["verification"]["w0"]))
            if not oracle.is_nonprefix_left_special(t, w0):
                return ("wrong", f"{key}: w0 is not a non-prefix left special factor")
        return self.compare(key, summary)


class WitnessCorpus(Workload):
    name = "witness_corpus"
    tail_pct = 93  # 154 inputs succeed at the seed commit
    pass_s = 4.5
    bases = oracle.corpus(range(2, 8), 3, tm=lambda x: x == 1, nonpower=True)

    def units(self, rng):
        return [[(text(t), cold_start, lambda s=text(t): run_cli(["witness", s]))]
                for t in self.bases]

    def math_digest(self, key, summary):
        return digest(witness_math(json.loads(summary[1])))

    def check(self, key, summary):
        rc, out = summary
        if rc != 0:
            return ("exit", f"{key}: exit code {rc}")
        body = json.loads(out)
        if not all(body["verification"]["conditions"].values()):
            return ("wrong", f"{key}: a witness condition is reported false")
        w0 = bytes(parse_word(body["verification"]["w0"]))
        if not oracle.is_nonprefix_left_special(parse_word(key), w0):
            return ("wrong", f"{key}: w0 is not a non-prefix left special factor")
        return self.compare(key, summary)


class ExactArith(Workload):
    name = "exact_arith"
    tail_pct = 94  # 184 inputs
    pass_s = 4.8
    validate_m = range(8, 25)  # every size, so no gap in cost between neighbours
    expand_m = range(4, 9)
    expand_bases = 5  # per size, each with a sixth of N = 1..30
    expand_n = range(1, 31)

    @staticmethod
    def _word(rng, m, valid, t1_choices):
        while True:
            t1 = rng.choice(t1_choices)
            t = (t1,) + tuple(rng.randint(0, t1) for _ in range(m - 2)) + (rng.randint(1, t1),)
            if oracle.parry_ok(t) == valid:
                return t

    def units(self, rng):
        """A valid and an invalid word at each validate size; at each expand
        size, N = 1..30 shared out over a few bases."""
        ops = []
        for m in self.validate_m:
            for valid in (True, False):
                w = text(self._word(rng, m, valid, (2, 3)))
                ops.append((f"validate {w}", cold_start, lambda w=w: run_cli(["validate", w])))
        for m in self.expand_m:
            for i in range(self.expand_bases):
                b = text(self._word(rng, m, True, (1, 2, 3)))
                for n in self.expand_n[i::self.expand_bases]:
                    ops.append((f"expand {b} {n}", cold_start,
                                lambda b=b, n=n: run_cli(["betaint", b, "expand", str(n)])))
        return [[op] for op in ops]

    def check(self, key, summary):
        rc, out = summary
        op, *args = key.split()
        t = parse_word(args[0])
        if op == "validate":
            valid = oracle.parry_ok(t)
            if rc != (0 if valid else 2):
                return ("wrong", f"{key}: exit code {rc}")
            body = json.loads(out)
            if body["valid"] != valid or body["d"] != args[0]:
                return ("wrong", f"{key}: valid={body['valid']}")
            if valid and body["m"] != len(t):
                return ("wrong", f"{key}: m={body['m']}")
            return None
        if rc != 0:
            return ("exit", f"{key}: exit code {rc}")
        body = json.loads(out)
        n = int(args[1])
        if body["n"] != n or body["d"] != args[0]:
            return ("wrong", f"{key}: echoed arguments differ")
        head, tail = body["expansion"].split(".")
        integer = () if head == "0" else parse_word(head)
        err = oracle.greedy_expansion_error(t, n, integer, parse_word(tail), body["exact"])
        return err and ("wrong", f"{key}: {err}")


class SpecialsSession(Workload):
    name = "specials_session"
    tail_pct = 97  # 468 inputs
    pass_s = 5.0
    bases = ["11", "22", "111", "211", "201", "2112", "321", "2121", "21211"]
    sweep = 25
    maximal_bound = 40
    trident_bound = 20

    def units(self, rng):
        """One session per base; the factor cache is cleared only before it."""
        units = []
        for s in self.bases:
            d = numeration.validate_renyi(s)
            session = [(f"{s} up {n}", lambda d=d, n=n: analysis.special_factors(d, n))
                       for n in range(1, self.sweep + 1)]
            session.append((f"{s} maximal {self.maximal_bound}",
                            lambda d=d: analysis.maximal_left_special(d, self.maximal_bound)))
            session.append((f"{s} tridents {self.trident_bound}",
                            lambda d=d: analysis.find_tridents(d, self.trident_bound)))
            session += [(f"{s} down {n}", lambda d=d, n=n: analysis.special_factors(d, n))
                        for n in range(self.sweep, 0, -1)]
            units.append([(key, cold_start if i == 0 else None, call)
                          for i, (key, call) in enumerate(session)])
        return units

    def summarize(self, key, raw):
        kind = key.split()[1]
        if kind in ("up", "down"):
            rep = raw.to_json()
            math = {k: rep[k] for k in ("n", "left_special", "right_special", "bispecial", "delta")}
            witnesses = tuple((ls["word"], tuple(ls["lext"])) for ls in rep["left_special"])
        elif kind == "maximal":
            math = [list(w) for w in raw]
            witnesses = tuple((text(w), ()) for w in raw)
        else:
            math = [t.to_json() for t in raw]
            witnesses = ()
        return digest(math), witnesses

    def math_digest(self, key, summary):
        return summary[0]

    def check(self, key, summary):
        wrong = self.compare(key, summary)
        if wrong:
            return wrong
        u = _prefix(key.split()[0])
        for w, lext in summary[1]:
            w = bytes(parse_word(w))
            if lext:
                if len(lext) < 2 or any(bytes([a]) + w not in u for a in lext):
                    return ("wrong", f"{key}: left special {text(w)} with {lext} not found")
            elif len(oracle.left_letters(u, w)) < 2:
                return ("wrong", f"{key}: maximal {text(w)} is not left special")
        return None


WORKLOADS = {w.name: w for w in (ClassifyCold(), WitnessCorpus(), ExactArith(), SpecialsSession())}

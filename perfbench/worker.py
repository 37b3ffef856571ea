"""One repetition of one benchmark workload, in a fresh process.

`run.py` starts this file once per repetition, because the sequence memo and
the claim catalogue are process-global: a fresh process pays the same cold
start that a user of the `rc` command pays. The worker imports `rc` from the
checkout's `src`, builds the catalogue and its inputs, prints `ready` with
the CPU time the process has used so far (its set-up), runs the workload
single-threaded, and prints one JSON line with the result, whose `cpu_s` is
the process CPU time of the workload alone and `scale` the factor that scales
it to a fixed machine speed (see speed.py). It calls only
the package's public functions.

With tracing on, the workload records a span around each call into a layer
(see spans.py) and runs in phases where the layers can be told apart from
outside: sequences are filled first, then the cached sums are accumulated,
then the claims are checked, each phase inheriting warm caches from the one
before. The `exactmath.nullspace` spans come from a wrapper installed on the
name `rc.telescoper` calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

from spans import Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

sys.path.insert(0, str(ROOT / "src"))
import rc  # noqa: E402
import rc.telescoper  # noqa: E402
from rc import (  # noqa: E402
    builtin_claims,
    certify,
    discover_weights,
    eval_sum,
    find_telescoper,
    get_claim,
    get_sequence,
    nullspace,
    parse_poly,
    verify_claim_range,
)
from rc.telescoper import cert_to_json  # noqa: E402
from rc.congruence import (  # noqa: E402
    Add,
    BinomExpr,
    Const,
    Div,
    Legendre,
    Mul,
    PowInt,
    SeqFactor,
    SeqRef,
    Sub,
    SumEvaluator,
    SumNode,
    VarN,
    suite_range,
)

# the dense, certificate-backed W and T sums, in a fixed order: the order
# alone moves peak RSS between 76 and 102 MB at N = 8000, so verify-sums
# takes nothing from the seed
VERIFY_SUMS_CLAIMS = ("theorem-1.1i", "sun-divisibility", "theorem-1.3i")

# the four searches of scripts/reproduce_certificates.py:
# (sequence, weight, target shifts, window, degree bound, golden certificate)
REFERENCE_SEARCHES = [
    ("W", "8*k+9", (0, 0), (-2, 0), 2, "cert_W_8k9_win-2..0.json"),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (-1, 0), 4, "cert_T_k_k1_8k9_win-1..0.json"),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (0, 1), 4, "cert_T_k_k1_8k9_win0..1.json"),
    ("T", "(k+1)*(16*k+21)", (0, 1), (-1, 0), 6, "cert_T_k1_16k21_win-1..0.json"),
]
# the discovery of the paper suite: (sequence, fixed weight factor, free
# degree, target shifts, window, degree bound)
DISCOVER = ("T", "k+1", 1, (0, 1), (-1, 0), 3)
# certify's default numeric range; the search workload needs no term beyond it
CERTIFY_N = 200


def span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer else nullcontext(attrs)


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)


def _raised(what: str) -> str:
    return f"{what} raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]


# -- what a claim needs: sequence indices and cached sums ------------------------


def claim_points(claim, lo: int, hi: int) -> list[int]:
    return claim.domain.points(lo, hi) + list(claim.flag_points)


def widen(seq_ranges: dict, name: str, lo: int, hi: int) -> None:
    old = seq_ranges.get(name, (lo, hi))
    seq_ranges[name] = (min(old[0], lo), max(old[1], hi))


def claim_needs(claim, points: list[int], seq_ranges: dict, sums: dict) -> bool:
    """Add to `seq_ranges` (name -> (lo, hi)) every sequence index the claim
    reads at `points`, and to `sums` (n-free SumSpec -> n) the largest sum it
    takes; returns whether the claim has a sum that bypasses the cache."""
    direct = False

    def walk(e):
        nonlocal direct
        if isinstance(e, (Const, VarN, PowInt, BinomExpr)):
            return
        if isinstance(e, SeqRef):
            widen(seq_ranges, e.name, min(points) + e.shift, max(points) + e.shift)
        elif isinstance(e, Legendre):
            walk(e.top)
            walk(e.bottom)
        elif isinstance(e, (Add, Mul)):
            for x in e.terms if isinstance(e, Add) else e.factors:
                walk(x)
        elif isinstance(e, (Sub, Div)):
            walk(e.a)
            walk(e.b)
        elif isinstance(e, SumNode):
            spec = e.spec
            n_top = max(points, key=spec.upper.at)
            k_top = spec.upper.at(n_top)
            for f in spec.factors:
                if isinstance(f, SeqFactor) and k_top >= spec.lo:
                    widen(seq_ranges, f.name, spec.lo + f.shift, k_top + f.shift)
            if not spec.n_free:
                direct = True
            elif spec.upper.at(sums.get(spec, n_top)) <= k_top:
                sums[spec] = n_top
        else:
            raise TypeError(f"the benchmark does not know expression node {e!r}")

    for side in (claim.lhs, claim.rhs, claim.modulus):
        walk(side)
    return direct


# -- layer calls, one span each ---------------------------------------------------------


def fill_sequences(seq_ranges: dict, tracer: Tracer) -> None:
    for name, (lo, hi) in sorted(seq_ranges.items()):
        seq = get_sequence(name)
        lo = max(lo, seq.min_index)
        with tracer.span("sequences.terms", seq=name, lo=lo, hi=hi) as a:
            terms = seq.terms(lo, hi)
        a["terms"] = len(terms)
        a["max_bits"] = max((abs(t).bit_length() for t in terms), default=0)


def accumulate_sums(sums: dict, ev, tracer: Tracer) -> None:
    for spec, n in sums.items():
        with tracer.span("congruence.eval_sum", n=n, terms=max(0, spec.upper.at(n) - spec.lo + 1)):
            eval_sum(spec, n, ev)


def check_claim(claim, lo, hi, expected_points, direct, ev, tally, tracer) -> None:
    tally.attempted += expected_points
    with span(tracer, "congruence.verify_claim_range", claim=claim.claim_id, direct=direct) as a:
        try:
            rep = verify_claim_range(claim, lo, hi, ev)
        except Exception:
            rep = None
            tally.fail(expected_points, _raised(claim.claim_id))
    a["points"] = rep.points_checked if rep else 0
    a["failed"] = len(rep.failures) if rep else expected_points
    if rep is None:
        return
    if rep.points_checked != expected_points:
        tally.fail(
            expected_points,
            f"{claim.claim_id}: checked {rep.points_checked} points, expected {expected_points}",
        )
    elif rep.failures:
        tally.fail(len(rep.failures), f"{claim.claim_id}: fails at n={rep.failures[0].n}")


# -- workloads: set-up (before `ready`) and run -------------------------------------


class VerifySums:
    """verify_claim_range over n = 1..N for the dense W and T sums, sharing one
    SumEvaluator, then the sums at N against stored sha256 digests."""

    def __init__(self, seed: int, params: dict, trace: bool):
        self.n = params["n"]
        self.claims = [get_claim(c) for c in VERIFY_SUMS_CLAIMS]
        self.golden = json.loads((GOLDEN / "sum_sha256.json").read_text())[str(self.n)]
        self.ev = SumEvaluator()
        self.seq_ranges: dict = {}
        self.sums: dict = {}
        self.claim_sum = {}
        for claim in self.claims:
            own: dict = {}
            claim_needs(claim, claim_points(claim, 1, self.n), self.seq_ranges, own)
            (self.claim_sum[claim.claim_id],) = own
            self.sums.update(own)

    def run(self, tally: Tally, tracer: Tracer | None) -> None:
        if tracer:
            fill_sequences(self.seq_ranges, tracer)
            accumulate_sums(self.sums, self.ev, tracer)
        for claim in self.claims:
            # every one of these claims holds at every integer n >= 1
            check_claim(claim, 1, self.n, self.n, False, self.ev, tally, tracer)
        for claim in self.claims:
            tally.attempted += 1
            value = str(eval_sum(self.claim_sum[claim.claim_id], self.n, self.ev))
            if hashlib.sha256(value.encode()).hexdigest() != self.golden[claim.claim_id]:
                tally.fail(1, f"{claim.claim_id}: sum at n={self.n} differs from the stored digest")


class Catalogue:
    """The other built-in claims at widened suite ranges, sharing one evaluator,
    in a seeded order; the trinomial transforms take the uncached direct path."""

    def __init__(self, seed: int, params: dict, trace: bool):
        factor, direct_hi = params["range_factor"], params["direct_hi"]
        key = f"x{factor}-direct{direct_hi}"
        expected = json.loads((GOLDEN / "catalogue_points.json").read_text())[key]
        self.ev = SumEvaluator()
        self.seq_ranges: dict = {}
        self.sums: dict = {}
        self.jobs = []
        for claim in builtin_claims():
            if claim.claim_id in VERIFY_SUMS_CLAIMS:
                continue
            lo, hi = suite_range(claim.claim_id)
            hi = direct_hi if claim.claim_id.startswith("trinomial-transform-") else factor * hi
            direct = claim_needs(claim, claim_points(claim, lo, hi), self.seq_ranges, self.sums)
            self.jobs.append((claim, lo, hi, expected[claim.claim_id], direct))
        random.Random(seed).shuffle(self.jobs)
        if trace:
            # checks of cached claims first, then the direct ones, so each is timed apart
            self.jobs.sort(key=lambda job: job[4])

    def run(self, tally: Tally, tracer: Tracer | None) -> None:
        if tracer:
            fill_sequences(self.seq_ranges, tracer)
            accumulate_sums(self.sums, self.ev, tracer)
        for claim, lo, hi, expected, direct in self.jobs:
            check_claim(claim, lo, hi, expected, direct, self.ev, tally, tracer)


class Search:
    """The reference certificate searches, a weight discovery and one search
    without a solution, each result re-certified."""

    def __init__(self, seed: int, params: dict, trace: bool):
        rng = random.Random(seed)
        self.searches = [
            (seq, parse_poly(p), target, window, deg, (GOLDEN / name).read_bytes())
            for seq, p, target, window, deg, name in REFERENCE_SEARCHES
        ]
        rng.shuffle(self.searches)
        # k^3 weights admitting a W-square certificate of degree <= 12 over the
        # window -2..0 lie in span{8k+9, 960k^3+1080k^2+2250}: leading
        # coefficients 1..3 keep every cubic drawn here outside it
        a3 = rng.randint(1, 3)
        a2, a1, a0 = (rng.randint(1, 5) for _ in range(3))
        self.none_p = parse_poly(f"{a3}*k^3+{a2}*k^2+{a1}*k+{a0}")
        self.none_deg = params["none_deg"]
        # certify reads S(n) up to n = CERTIFY_N and the summand below it
        self.seq_ranges: dict = {}
        certified = [(seq, target, window) for seq, _, target, window, _, _ in REFERENCE_SEARCHES]
        certified.append((DISCOVER[0], DISCOVER[3], DISCOVER[4]))
        for seq, target, window in certified:
            lo = min(window[0], *target)
            hi = max(CERTIFY_N + window[1], CERTIFY_N - 1 + max(target))
            widen(self.seq_ranges, seq, lo, hi)

    def run(self, tally: Tally, tracer: Tracer | None) -> None:
        if tracer:
            fill_sequences(self.seq_ranges, tracer)
        for seq, p, target, window, deg, golden in self.searches:
            cert = self._find(seq, p, target, window, deg, tally, tracer)
            if cert is None:
                tally.fail(1, f"no certificate for {seq} {p} window {window}")
                continue
            if (json.dumps(cert_to_json(cert), indent=2) + "\n").encode() != golden:
                tally.fail(1, f"certificate for {seq} {p} window {window} differs from golden")
            self._certify(cert, tally, tracer)

        tally.attempted += 1
        disc = None
        try:
            with span(tracer, "telescoper.discover_weights"):
                seq, p_fixed, p_degree, target, window, deg = DISCOVER
                disc = discover_weights(
                    seq, seq, parse_poly(p_fixed), p_degree, target, window, deg_bound=deg
                )
        except Exception:
            tally.fail(1, _raised("discover_weights"))
        if disc is not None:
            # the weight direction (k+1)(16k+21) must lie in the solution span
            rows = [list(c) for c in disc.solution_coords]
            rank = 2 - len(nullspace(rows, ncols=2)) if rows else 0
            if not rows or 2 - len(nullspace(rows + [[21, 16]], ncols=2)) != rank:
                tally.fail(1, "discovery misses the direction 16k+21")
            for cert in disc.solutions:
                self._certify(cert, tally, tracer)

        cert = self._find("W", self.none_p, (0, 0), (-2, 0), self.none_deg, tally, tracer)
        if cert is not None:
            # unexpected, and counted as failed unless it re-certifies
            self._certify(cert, tally, tracer)

    @staticmethod
    def _find(seq, p, target, window, deg, tally, tracer):
        tally.attempted += 1
        with span(tracer, "telescoper.find_telescoper", seq=seq, p=str(p), deg_bound=deg) as a:
            try:
                cert = find_telescoper(seq, seq, p, target, window, deg_bound=deg)
            except Exception:
                cert = None
                tally.fail(1, _raised(f"find_telescoper({seq}, {p})"))
        a["found"] = cert is not None
        return cert

    @staticmethod
    def _certify(cert, tally, tracer) -> None:

        tally.attempted += 1
        try:
            if tracer:
                with tracer.span("telescoper.certify_symbolic"):
                    certify(cert, 0)
            with span(tracer, "telescoper.certify"):
                ok = certify(cert).ok
        except Exception:
            tally.fail(1, _raised("certify"))
            return
        if not ok:
            tally.fail(1, f"certificate for {cert.seq_a} p={cert.p} fails certify")


WORKLOADS = {"verify-sums": VerifySums, "search": Search, "catalogue": Catalogue}


def install_nullspace_wrapper(tracer: Tracer) -> None:
    inner = getattr(rc.telescoper, "nullspace", None)
    if not callable(inner):
        raise RuntimeError(
            "rc.telescoper no longer calls a module-level `nullspace`; "
            "the benchmark's exactmath.nullspace spans need updating"
        )

    def nullspace(rows, *args, **kwargs):
        ncols = kwargs.get("ncols", args[0] if args else None)
        cols = ncols if ncols is not None else len(rows[0])
        with tracer.span("exactmath.nullspace", rows=len(rows), cols=cols):
            return inner(rows, *args, **kwargs)

    rc.telescoper.nullspace = nullspace


def main() -> None:
    spec = json.loads(sys.argv[1])
    # the golden digests are of the full decimal strings of the sums
    sys.set_int_max_str_digits(0)
    if not Path(rc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported rc from {rc.__file__}, not from {ROOT / 'src'}")
    builtin_claims()  # the catalogue is built once per process, as part of set-up
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["params"], spec["trace"])
    print(f"ready {process_time()!r}", flush=True)
    probe = SpeedProbe()
    if spec["setup_only"]:
        probe.take()
        print(json.dumps({"scale": probe.scale}), flush=True)
        return

    tally = Tally()
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer:
        install_nullspace_wrapper(tracer)
    # traced repetitions give no end-to-end times and need no scale
    with nullcontext() if tracer else probe:
        t0, c0 = perf_counter(), process_time()
        with span(tracer, "workload", workload=spec["workload"], seed=spec["seed"]):
            workload.run(tally, tracer)
        cpu_s = process_time() - c0
        wall_s = perf_counter() - t0
    if tracer and spec["workload"] == "search":
        if not any(s["name"] == "exactmath.nullspace" for s in tracer.spans):
            raise RuntimeError("the searches made no call through rc.telescoper.nullspace")
    result = {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "scale": None if tracer else probe.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "spans": tracer.spans if tracer else [],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

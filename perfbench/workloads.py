"""Seeded inputs, job rotations and output checks for the three workloads.

Every input is drawn from the benchmark seed; jetmod receives only the
generated kernel specs (in process) or kernel files (``cli-session``).

A check returns ``(status, info)``.  ``status`` is ``"ok"``, ``"failed"``
(the job gave no answer: it raised, exited with an unexpected code, or
the verdict is "inconclusive") or ``"wrong"`` (it gave an answer that
contradicts the known one).  Both count in ``failed``; a wrong answer
also makes the run's ``correct`` false.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

TOL = 1e-8  # equivalence tolerance, jetmod's default
REL = 1e-9  # closed-form and Hermitian checks, relative to scale


def _rel_err(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _psd(rng, complex_entries=True):
    g = rng.normal(size=(2, 2))
    if complex_entries:
        g = g + 1j * rng.normal(size=(2, 2))
    return g @ g.conj().T + 0.2 * np.eye(2)


def _weights(rng):
    """Three distinct positive weights in random order (gaps >= 0.1)."""
    return rng.permutation(0.5 + 0.5 * np.arange(3) + rng.uniform(0.0, 0.4, 3))


def _gauge_text(rng):
    """A gauge factor 1 + a*z1 + b*z2 with 0.1 <= |a|, |b| <= 0.3."""
    out = "1.0"
    for i, c in enumerate(rng.uniform(0.1, 0.3, 2) * rng.choice([-1.0, 1.0], 2), start=1):
        out += f" {'-' if c < 0 else '+'} {abs(float(c))!r}*z{i}"
    return out


def _submanifold_points(rng, count, m=3, d=2):
    """Points (0, .., 0, u) on the flattened diagonal with |u| <= 0.5."""
    out = []
    for _ in range(count):
        q = np.zeros(m, dtype=complex)
        q[d:] = 0.5 * np.sqrt(rng.random(m - d)) * np.exp(2j * np.pi * rng.random(m - d))
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# equiv


class Equiv:
    """rank1_equiv, rankr_equiv and mthm_check with known verdicts.

    Each entry point gets an equivalent and a not-equivalent pair of the
    same expression size, so both cost the same.  Rank-2 pairs are
    (A, U A U*) and (A, U B U*) for three-summand matrix combinations A, B
    and a unitary U; tridisc pairs are (T, psi T psi*) and (T, psi T' psi*)
    with T' the product kernel with two weights swapped.

    Job times here are about 0.4 s (rank1), 1.0-1.4 s (rankr) and 2.2-3 s
    (mthm).  The rotation holds rank1 : rankr : mthm = 2 : 6 : 2, so the
    rankr jobs fill the middle 60% of the sorted times: the median lies at
    their centre and the tail percentile (11th slowest of the 18 to 40 jobs
    a run makes) inside them, not on a boundary between kinds.
    """

    rotation = (
        "rank1-eq", "rankr-eq", "rankr-neq", "mthm-eq", "rankr-eq",
        "rank1-neq", "rankr-neq", "mthm-neq", "rankr-eq", "rankr-neq",
    )
    trace_plan = ("rank1-eq", "rank1-neq", "rankr-eq", "rankr-neq", "mthm-eq", "mthm-neq")

    def __init__(self, seed, tiny=False):
        import jetmod as J

        self.J = J
        rng = np.random.default_rng([seed, 1])
        self.k_rank2 = 2 if tiny else 3
        self.k_rank1 = 2 if tiny else 4
        self.chart = J.diagonal_chart(3)
        self.samples = _submanifold_points(rng, 2 if tiny else 5)

        def rank2():
            scalars = [J.builtin_bergman(_weights(rng)) for _ in range(3)]
            return J.matrix_combination(scalars, [_psd(rng) for _ in range(3)])

        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        self.u = q * (np.diag(r) / np.abs(np.diag(r)))
        a, b = rank2(), rank2()
        a_conj = J.conjugate_by_unitary(a, self.u)
        b_conj = J.conjugate_by_unitary(b, self.u)
        w = _weights(rng)
        psi = J.parse_expression(_gauge_text(rng))
        t = J.builtin_bergman(w)
        t_swapped = J.builtin_bergman(w[[1, 0, 2]])
        self.pairs = {
            "rank1-eq": (t, J.gauge_scale(t, psi), "equivalent"),
            "rank1-neq": (t, J.gauge_scale(t_swapped, psi), "not-equivalent"),
            "rankr-eq": (a, a_conj, "equivalent"),
            "rankr-neq": (a, b_conj, "not-equivalent"),
            "mthm-eq": (a, a_conj, "equivalent"),
            "mthm-neq": (a, b_conj, "not-equivalent"),
        }

    def run(self, name):
        J = self.J
        spec_a, spec_b, _ = self.pairs[name]
        entry = name.split("-")[0]
        if entry == "rank1":
            return J.rank1_equiv(spec_a, spec_b, self.chart, self.k_rank1, self.samples)
        fn = J.rankr_equiv if entry == "rankr" else J.mthm_check
        return fn(spec_a, spec_b, self.chart, self.k_rank2, self.samples)

    def check(self, name, report):
        expected = self.pairs[name][2]
        info = {"residual_over_tol": max(report.residuals) / TOL, "verdict": report.verdict}
        if report.verdict == "inconclusive":
            return "failed", info
        if report.verdict != expected:
            return "wrong", info
        if expected == "equivalent" and not name.startswith("rank1"):
            # the witness must recover U up to a global phase
            d = report.witness.matrix
            inner = np.vdot(self.u, d)
            err = float(np.max(np.abs(d - inner / abs(inner) * self.u)))
            info["witness_err"] = err
            if err > 1e-6:
                return "wrong", info
        return "ok", info


# ---------------------------------------------------------------------------
# jetkernel-k5


class JetKernelK5:
    """jet_kernel(d=2, k=5) of pulled-back rank-2 kernels at (0, 0, u).

    One job is one 6-variable, truncation-8 evaluation (3,003 coefficients);
    the rotation alternates two kernels over eight points.
    """

    def __init__(self, seed, tiny=False):
        import jetmod as J

        self.J = J
        rng = np.random.default_rng([seed, 2])
        self.k = 3 if tiny else 5
        chart = J.diagonal_chart(3, style="anchored")
        kernels = []
        for _ in range(2):
            scalars = [J.builtin_bergman(_weights(rng)) for _ in range(3)]
            spec = J.matrix_combination(scalars, [_psd(rng) for _ in range(3)])
            kernels.append(J.pullback_affine(spec, chart))
        points = _submanifold_points(rng, 8)
        self.jobs = {
            f"k{i % 2}-p{i // 2}": (kernels[i % 2], points[i // 2]) for i in range(16)
        }
        self.rotation = tuple(self.jobs)
        self.trace_plan = self.rotation[:3]

    def run(self, name):
        spec, q = self.jobs[name]
        return self.J.jet_kernel(spec, 2, self.k, q, q)

    def check(self, name, jkv):
        spec, q = self.jobs[name]
        mat = jkv.as_matrix()
        scale = max(1.0, float(np.max(np.abs(mat))))
        eig = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        info = {
            "block00_err": _rel_err(jkv.block(0, 0), spec.eval_point(q, q)),
            "hermitian_err": float(np.max(np.abs(mat - mat.conj().T))) / scale,
            "min_eig_rel": float(eig[0] / eig[-1]),
        }
        ok = (
            info["block00_err"] <= REL and info["hermitian_err"] <= REL
            and info["min_eig_rel"] >= -REL
        )
        return ("ok" if ok else "wrong"), info


# ---------------------------------------------------------------------------
# cli-session

_TIMESTAMP = re.compile(rb'\n\s*"timestamp": "[^"]*",?')


def strip_timestamp(raw: bytes) -> bytes:
    return _TIMESTAMP.sub(b"", raw)


def _csv(values):
    return ",".join(repr(float(x)) for x in values)


def _matrix_kernel_text(weights, matrices, gauge=None):
    """Kernel file for sum_s matrices[s] * prod_i (1 - z_i*wb_i)^-weights[s][i].

    Real coefficients only: the file grammar has no imaginary unit and no
    unary minus, so negative terms are written with a binary minus.
    """
    def scalar(w):
        return " * ".join(f"(1 - z{i + 1}*wb{i + 1})^-{float(x)!r}" for i, x in enumerate(w))

    lines = ["m = 3", "r = 2"]
    for i in range(2):
        for j in range(2):
            text = ""
            for w, mat in zip(weights, matrices):
                c = float(mat[i, j])
                if text:
                    text += f" {'-' if c < 0 else '+'} "
                elif c < 0:
                    text += "0 - "
                text += f"{abs(c)!r} * {scalar(w)}"
            if gauge is not None:
                text = f"({gauge[0]}) * ({text}) * ({gauge[1]})"
            lines.append(f"K[{i + 1}][{j + 1}] = {text}")
    return "\n".join(lines) + "\n"


class CliSession:
    """One fresh ``python -m jetmod.cli ... --out`` process per job.

    Fresh-process job times here: recover-weights, jetkernel and the
    rank-1 equiv about 0.35-0.4 s, curvature (100 points) about 0.6-0.9 s,
    equiv --criterion invariants (k=3) about 1.6 s, quotient-demo about
    3.4 s.  Six of the eleven jobs per rotation are curvature, so the
    median and the tail percentile (11th slowest of about 20 to 40 jobs)
    fall among them.

    The jobs in ``probes`` exercise a known defect: ``neg-base`` exits 2
    until ``eval_jet`` accepts a negative base (ROADMAP item 2).  They run
    once per run, outside the timed phase, and are reported by name and
    status beside the result, not in ``attempted`` and ``failed``; a wrong
    answer from them still makes the run incorrect.  The trace plan runs
    them too, so their ``DomainError`` shows in
    ``kernels.eval_jet.domain_errors``.
    """

    rotation = (
        "curv-1", "jetkernel", "curv-2", "equiv-rank1", "curv-3", "quotient-demo",
        "curv-1", "recover-weights", "curv-2", "equiv-invariants", "curv-3",
    )
    probes = ("neg-base",)
    trace_plan = (
        "neg-base", "curv-1", "curv-2", "curv-3", "jetkernel", "equiv-rank1",
        "equiv-invariants", "recover-weights", "quotient-demo",
    )

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng([seed, 3])
        npts = "5" if tiny else "100"

        # curvature kernel: U diag(k1, k2) U^T with a real rotation U and
        # tridisc product kernels k1, k2, whose curvature is known exactly
        angle = rng.uniform(0.2, 1.3)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        self.curv_rot = rot
        self.curv_weights = [_weights(rng), _weights(rng)]
        projectors = [np.outer(rot[:, s], rot[:, s]) for s in range(2)]
        # irreducible three-summand kernel and its gauge-equivalent partner
        mix_weights = [_weights(rng) for _ in range(3)]
        mix = [_psd(rng, complex_entries=False) for _ in range(3)]
        psi = _gauge_text(rng)
        gauge = (psi, psi.replace("z", "wb"))
        self.tridisc = _weights(rng)
        self.recover = _weights(rng)
        self.quotient = _weights(rng)
        z = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        self.z = complex(round(z.real, 6), round(z.imag, 6))
        files = {
            "curv.ker": _matrix_kernel_text(self.curv_weights, projectors),
            "mix.ker": _matrix_kernel_text(mix_weights, mix),
            "mix-gauge.ker": _matrix_kernel_text(mix_weights, mix, gauge),
            "neg.ker": "m = 1\nK[1][1] = (z1*wb1 - 2)^-2\n",
            "tri.ker": f"m = 3\nK = bergman({_csv(self.tridisc)})\n",
            "tri-swap.ker": f"m = 3\nK = bergman({_csv(self.tridisc[[1, 0, 2]])})\n",
        }
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        seeds = [str(int(s)) for s in rng.integers(1, 2**31, 4)]
        points = ";".join(f"0,0,{complex(q[2])!r}" for q in _submanifold_points(rng, 2))
        kq = "2" if tiny else "3"
        self.jobs = {
            "neg-base": (["curvature", "--kernel", "neg.ker", "--seed", seeds[0],
                          "--num-samples", npts], 0),
            "curv-1": (["curvature", "--kernel", "curv.ker", "--seed", seeds[1],
                        "--num-samples", npts], 0),
            "curv-2": (["curvature", "--kernel", "curv.ker", "--seed", seeds[2],
                        "--num-samples", npts], 0),
            "curv-3": (["curvature", "--kernel", "curv.ker", "--seed", seeds[3],
                        "--num-samples", npts], 0),
            "jetkernel": (["jetkernel", "--kernel", "mix.ker", "--chart",
                           "diagonal-anchored(3)", "-k", kq, "--restrict",
                           "--points", points], 0),
            "equiv-rank1": (["equiv", "--kernel", "tri.ker", "--kernel2", "tri-swap.ker",
                             "--chart", "diagonal(3)", "-k", "2"], 3),
            "equiv-invariants": (["equiv", "--kernel", "mix.ker", "--kernel2",
                                  "mix-gauge.ker", "--chart", "diagonal(3)", "-k", kq,
                                  "--criterion", "invariants"], 0),
            "recover-weights": (["recover-weights", "--weights", _csv(self.recover)], 0),
            "quotient-demo": (["quotient-demo", "--weights", _csv(self.quotient),
                               "--z", repr(self.z)]
                              + (["--pmax", "30", "--plevels", "2"] if tiny else []), 0),
        }
        self.previous = {}

    def argv(self, name, out_path):
        args, _ = self.jobs[name]
        return args + ["--out", out_path]

    def check(self, name, code, out_path):
        """Check one finished job; the report file is removed afterwards."""
        _, expected_code = self.jobs[name]
        info = {"exit": code}
        try:
            with open(out_path, "rb") as fh:
                raw = fh.read()
            os.unlink(out_path)
        except FileNotFoundError:
            raw = None
        if code != expected_code or raw is None:
            return "failed", info
        report = json.loads(raw)
        if report.get("schema") != 1:
            return "wrong", info
        body = strip_timestamp(raw)
        if name in self.previous and self.previous[name] != body:
            info["report_changed"] = True
            return "wrong", info
        self.previous[name] = body
        ok = getattr(self, "_check_" + name.split("-")[0])(name, report["results"], info)
        return ("ok" if ok else "wrong"), info

    # -- per-command accuracy checks ------------------------------------

    def _check_neg(self, name, results, info):
        # curvature of (2 - z*wb)^-2 is 4 / (2 - |z|^2)^2
        err = 0.0
        for row in results["points"]:
            z = complex(*row["point"][0])
            got = complex(*row["blocks"][0][0][0][0])
            err = max(err, abs(got - 4.0 / (2.0 - abs(z) ** 2) ** 2))
        info["closed_form_err"] = err
        return err <= REL

    def _check_curv(self, name, results, info):
        # U diag(k1, k2) U^T: block (i, i) is U diag(w1_i, w2_i) U^T / (1 - |z_i|^2)^2
        err = 0.0
        lam = np.array(self.curv_weights)  # (2, 3)
        for row in results["points"]:
            z = np.array([complex(*c) for c in row["point"]])
            blocks = np.array(row["blocks"])
            got = blocks[..., 0] + 1j * blocks[..., 1]
            want = np.zeros((3, 3, 2, 2), dtype=complex)
            for i in range(3):
                want[i, i] = self.curv_rot @ np.diag(lam[:, i]) @ self.curv_rot.T
                want[i, i] /= (1.0 - abs(z[i]) ** 2) ** 2
            err = max(err, _rel_err(got, want))
        info["closed_form_err"] = err
        return err <= REL

    def _check_jetkernel(self, name, results, info):
        worst = 0.0
        for row in results["points"]:
            mat = np.array(row["matrix"])
            mat = mat[..., 0] + 1j * mat[..., 1]
            worst = max(worst, _rel_err(mat, mat.conj().T))
        info["hermitian_err"] = worst
        return worst <= REL

    def _check_equiv(self, name, results, info):
        residual = max(results["residuals"]) / TOL
        info["residual_over_tol"] = residual
        info["verdict"] = results["verdict"]
        if name == "equiv-rank1":
            return results["verdict"] == "not-equivalent"
        return (
            results["verdict"] == "equivalent"
            and results["witness"]["unitarity_defect"] <= 1e-6
        )

    def _check_recover(self, name, results, info):
        err = _rel_err(results["recovered"], self.recover)
        info["weight_err"] = err
        return err <= 1e-8 and results["max_relative_error"] <= 1e-8

    def _check_quotient(self, name, results, info):
        level_err = max(row["rel_err"] for row in results["levels"])
        info["level_err"] = level_err
        info["max_deviation"] = results["max_deviation"]
        return level_err <= REL and results["max_deviation"] <= 1e-8


WORKLOADS = ("equiv", "jetkernel-k5", "cli-session")
IN_PROCESS = {"equiv": Equiv, "jetkernel-k5": JetKernelK5}

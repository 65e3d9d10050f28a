"""Reference trial loops for the tests: the appendix suites one trial at a
time.

``cli._run_appendix`` runs each appendix trial suite as one stacked pass per
matrix dimension (``inequalities.*_stack``).  These are the per-trial loops
it replaced, on plain numpy: one generator, QR, ``eigh`` and spectral norm
per matrix.  They stay here as the oracle for the stacked suites, whose
per-trial floats must equal these bitwise.  The certified ``eigh``
certificate is left out: it only decides whether to raise.
"""

import numpy as np


def random_hermitian(seed, dim, envelope):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    u = q * (d / np.abs(d))
    w = rng.uniform(*envelope, size=dim)
    h = (u * w) @ u.conj().T
    return (h + h.conj().T) / 2.0


def spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def eigh(h):
    return np.linalg.eigh((h + h.conj().T) / 2.0)


def bounded_transform(h):
    w, v = eigh(h)
    fw = np.array([float(x / np.sqrt(1.0 + x * x)) for x in w])
    f = (v * fw) @ v.conj().T
    return (f + f.conj().T) / 2.0


def interpolation(tm, sm, slack=1e-10):
    w, v = eigh(tm)
    assert w.min() >= 1e-8
    t_inv = (v * (1.0 / w)) @ v.conj().T
    t_half_inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    lhs = spectral_norm(t_half_inv @ sm @ t_half_inv)
    rhs = spectral_norm(sm @ t_inv)
    scale = max(1.0, rhs)
    tst = tm @ sm @ t_inv
    tst_rev = t_inv @ sm @ tm
    conj_resid = abs(spectral_norm(tst) - spectral_norm(tst_rev)) / scale
    adj_resid = spectral_norm(tst_rev.conj().T - tst) / scale
    passed = (lhs <= rhs + slack * scale) and conj_resid <= 1e-9 \
        and adj_resid <= 1e-10
    return dict(lhs=lhs, rhs=rhs, conj_equal_residual=conj_resid,
                adjoint_residual=adj_resid, passed=passed)


def conjugation(tm, fm, slack=1e-10):
    w, v = eigh(tm)
    assert w.min() >= 1e-8
    t_h = (v * np.sqrt(w)) @ v.conj().T
    t_h_inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    fwd = spectral_norm(t_h_inv @ fm @ t_h)
    rev = spectral_norm(t_h @ fm @ t_h_inv)
    norm_f = spectral_norm(fm)
    scale = max(1.0, fwd)
    resid = abs(fwd - rev) / scale
    return dict(norm_f=norm_f, conjugated_norm=fwd, reverse_equal_residual=resid,
                passed=norm_f <= fwd + slack * scale and resid <= 1e-9)


def resolvent(tm):
    return np.linalg.inv(tm + 1j * np.eye(tm.shape[0], dtype=np.complex128))


def scale_to_eps(tm, rm, eps, safety=0.999):
    res = resolvent(tm)
    worst = max(spectral_norm(rm @ res), spectral_norm(res @ rm))
    r = rm if worst == 0.0 else rm * (safety * eps / worst)
    return (r + r.conj().T) / 2.0


def stability(tm, tnm, eps):
    assert eps < 0.5
    res = resolvent(tm)
    diff = tm - tnm
    h1 = spectral_norm(diff @ res)
    h2 = spectral_norm(res @ diff)
    assert max(h1, h2) <= eps
    dist = spectral_norm(bounded_transform(tm) - bounded_transform(tnm))
    return dict(eps=eps, hypothesis_norms=(h1, h2), transform_diff=dist,
                bound=4.0 * eps, passed=dist <= 4.0 * eps)


# The appendix scenario's suites, trial by trial (``cli._run_appendix``
# before the stacked pass).

def interpolation_trials(base_seed, trials):
    return [interpolation(random_hermitian(base_seed + i, 4 + i % 9, (0.05, 3.0)),
                          random_hermitian(base_seed + i + 10 ** 6, 4 + i % 9, (-2.0, 2.0)))
            for i in range(trials)]


def conjugation_trials(base_seed, trials):
    return [conjugation(random_hermitian(base_seed + i, 4 + i % 9, (0.05, 3.0)),
                        random_hermitian(base_seed + i + 2 * 10 ** 6, 4 + i % 9, (-1.0, 1.0)))
            for i in range(trials)]


def stability_trials(base_seed, trials, eps):
    out = []
    for i in range(trials):
        t = random_hermitian(base_seed + i, 4 + i % 12, (-6.0, 6.0))
        raw = random_hermitian(base_seed + i + 3 * 10 ** 6, 4 + i % 12, (-1.0, 1.0))
        out.append(stability(t, t + scale_to_eps(t, raw, eps), eps))
    return out

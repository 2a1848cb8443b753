"""Polarization algebra tests.

The polarimeter formula and the qubit -> Stokes map are checked against two
independent oracles implemented right here: textbook Mueller matrices for
the plate + analyzer chain, and 2x2 density matrices for the state algebra.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polmem.data import SweepSeries
from polmem.errors import DataError, DegenerateGeometryError, IllConditionedFitError
from polmem.polarization import (
    CANONICAL_STATES,
    STATE_NAMES,
    QubitAngles,
    Rotation3,
    StokesVector,
    apply_rotation,
    fidelity,
    fit_rotation,
    fit_stokes,
    qwp_polarimeter_intensity,
    read_polarimetry_csv,
    stokes_from_qubit,
    write_polarimetry_csv,
)

# ---------------------------------------------------------------- oracles

PAULI = {
    "s1": np.array([[1, 0], [0, -1]], dtype=complex),
    "s2": np.array([[0, 1], [1, 0]], dtype=complex),
    "s3": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def stokes_oracle(theta, phi):
    """Stokes components from the density matrix of the pure qubit."""
    psi = np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)])
    rho = np.outer(psi, psi.conj())
    return np.array([1.0] + [np.trace(rho @ PAULI[k]).real for k in ("s1", "s2", "s3")])


def _mueller_rot(a):
    c, s = math.cos(2 * a), math.sin(2 * a)
    return np.array(
        [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=float
    )


def mueller_qwp(angle):
    """Quarter-wave retarder with fast axis at `angle` (horizontal fast axis base)."""
    delta = math.pi / 2
    base = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, math.cos(delta), -math.sin(delta)],
            [0, 0, math.sin(delta), math.cos(delta)],
        ]
    )
    return _mueller_rot(angle) @ base @ _mueller_rot(-angle)


MUELLER_HPOL = 0.5 * np.array(
    [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
)


def intensity_oracle(s, angle):
    """s0 after the plate + horizontal polarizer, by Mueller multiplication."""
    out = MUELLER_HPOL @ mueller_qwp(angle) @ s.as_array()
    return out[0]


def uhlmann_fidelity(a, b):
    """Density-matrix fidelity Tr(sqrt(sqrt(ra) rb sqrt(ra)))^2 for Bloch vectors."""
    ra = 0.5 * (np.eye(2, dtype=complex) + sum(a[i] * PAULI[k] for i, k in enumerate(PAULI)))
    rb = 0.5 * (np.eye(2, dtype=complex) + sum(b[i] * PAULI[k] for i, k in enumerate(PAULI)))
    w, v = np.linalg.eigh(ra)
    sq = v @ np.diag(np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = sq @ rb @ sq
    w2 = np.clip(np.linalg.eigvalsh(inner), 0, None)
    return float(np.sum(np.sqrt(w2)) ** 2)


def random_physical(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = 1.0 if pure else rng.random() ** (1 / 3)
    return StokesVector(1.0, *(r * v))


# ----------------------------------------------------------- StokesVector


def test_stokes_vector_basics():
    s = StokesVector(2.0, 1.0, 1.0, 0.0)
    assert_allclose(s.vec3, [1.0, 1.0, 0.0])
    assert math.isclose(s.dop, math.sqrt(2) / 2)
    n = s.normalize()
    assert n.s0 == 1.0
    assert_allclose(n.vec3, [0.5, 0.5, 0.0])
    assert s.is_physical()
    assert not StokesVector(1.0, 1.0, 1.0, 0.0).is_physical()
    assert StokesVector(1, 0, 0, 0).dop == 0.0


def test_stokes_vector_rejects_nonpositive_s0():
    with pytest.raises(DataError):
        StokesVector(0.0, 0, 0, 0)
    with pytest.raises(DataError):
        StokesVector(-1.0, 0, 0, 0)


def test_qubit_angle_ranges():
    QubitAngles(0.0, -math.pi)
    with pytest.raises(DataError):
        QubitAngles(-0.1, 0.0)
    with pytest.raises(DataError):
        QubitAngles(math.pi / 2 + 0.1, 0.0)
    with pytest.raises(DataError):
        QubitAngles(0.3, math.pi)  # phi interval is [-pi, pi)


# -------------------------------------------------- qubit -> Stokes map


def test_canonical_states_stokes_table():
    expected = {
        "H": (1, 1, 0, 0),
        "V": (1, -1, 0, 0),
        "D": (1, 0, 1, 0),
        "A": (1, 0, -1, 0),
        "R": (1, 0, 0, 1),
        "L": (1, 0, 0, -1),
    }
    for name in STATE_NAMES:
        s = stokes_from_qubit(CANONICAL_STATES[name])
        assert_allclose(s.as_array(), expected[name], atol=1e-15, err_msg=name)


def test_stokes_from_qubit_matches_density_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        theta = rng.random() * math.pi / 2
        phi = rng.random() * 2 * math.pi - math.pi
        s = stokes_from_qubit(QubitAngles(theta, phi))
        assert_allclose(s.as_array(), stokes_oracle(theta, phi), atol=1e-12)
        assert math.isclose(s.dop, 1.0, abs_tol=1e-12)


# ------------------------------------------------------- polarimeter law


def test_polarimeter_matches_mueller_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        s = random_physical(rng)
        angle = rng.random() * 2 * math.pi
        assert_allclose(
            qwp_polarimeter_intensity(s, angle), intensity_oracle(s, angle), atol=1e-12
        )


def test_polarimeter_known_settings():
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    # plate at 0: H passes fully through plate + H analyzer
    assert math.isclose(qwp_polarimeter_intensity(h, 0.0), 1.0)
    # unpolarized light transmits 1/2 at any plate angle
    unpol = StokesVector(1.0, 0.0, 0.0, 0.0)
    for angle in np.linspace(0, np.pi, 7):
        assert math.isclose(qwp_polarimeter_intensity(unpol, angle), 0.5)
    # circular light gives the pure sin(2t) oscillation about 1/2
    r = stokes_from_qubit(CANONICAL_STATES["R"])
    assert math.isclose(qwp_polarimeter_intensity(r, math.pi / 4), 1.0)
    assert math.isclose(qwp_polarimeter_intensity(r, -math.pi / 4), 0.0, abs_tol=1e-15)


def test_polarimeter_rejects_unphysical_state():
    with pytest.raises(DataError):
        qwp_polarimeter_intensity(StokesVector(1.0, 0.9, 0.9, 0.0), 0.1)


def test_intensity_nonnegative_for_physical_states():
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = random_physical(rng)
        assert qwp_polarimeter_intensity(s, rng.random() * math.pi) > -1e-12


# ------------------------------------------------------------ fit_stokes


def polarimetry_sweep(angles, intens):
    return SweepSeries(angles, intens, np.zeros(len(angles)))


def sweep_samples(s, angles):
    return polarimetry_sweep(angles, [qwp_polarimeter_intensity(s, a) for a in angles])


def test_fit_stokes_noiseless_round_trip():
    rng = np.random.default_rng(4)
    angles = np.linspace(0, math.pi, 12)
    for _ in range(100):
        s = random_physical(rng)
        vec, fit = fit_stokes(sweep_samples(s, angles))
        assert_allclose(vec.as_array(), s.as_array(), atol=1e-9)
        assert fit.residual_norm < 1e-12
        assert fit.n_points == 12


def test_fit_stokes_recovers_scaled_intensity():
    # raw params carry the total per-pulse level, the vector is normalized
    s = stokes_from_qubit(CANONICAL_STATES["D"])
    scaled = StokesVector(0.08, 0.08 * s.s1, 0.08 * s.s2, 0.08 * s.s3)
    angles = np.linspace(0, math.pi, 16)
    vec, fit = fit_stokes(sweep_samples(scaled, angles))
    assert math.isclose(fit.params["s0"], 0.08, rel_tol=1e-9)
    assert_allclose(vec.vec3, s.vec3, atol=1e-9)


def test_fit_stokes_params_match_returned_vector():
    # params and stderr describe the same quantities: s0 the per-pulse level,
    # s1..s3 the returned normalized vector, bit for bit
    rng = np.random.default_rng(13)
    angles = np.linspace(0, math.pi, 16)
    scaled = StokesVector(0.08, *(0.08 * stokes_from_qubit(CANONICAL_STATES["R"]).vec3))
    intens = [rng.poisson(1e4 * qwp_polarimeter_intensity(scaled, a)) / 1e4 for a in angles]
    vec, fit = fit_stokes(polarimetry_sweep(angles, intens))
    assert list(fit.params) == list(fit.stderr) == ["s0", "s1", "s2", "s3"]
    assert [fit.params[k] for k in ("s1", "s2", "s3")] == list(vec.vec3)
    assert vec.s0 == 1.0


def _fit_stokes_per_component(sweep):
    """fit_stokes's values and stderrs written out per component: the
    intensity law's coefficients by hand and a scalar delta-method loop."""
    x, y = sweep.x, sweep.y
    X = np.column_stack([np.ones_like(x), np.sin(2 * x), np.cos(4 * x), np.sin(4 * x)])
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    k0, k1, k2, k3 = coef
    raw = np.array([2 * k0 - 2 * k2, 4 * k2, 4 * k3, 2 * k1])
    L = np.array([[2, 0, -2, 0], [0, 0, 4, 0], [0, 0, 0, 4], [0, 2, 0, 0]], dtype=float)
    sigma2 = float(np.linalg.norm(y - X @ coef)) ** 2 / (len(x) - 4)
    cov = L @ (sigma2 * np.linalg.inv(X.T @ X)) @ L.T
    s0 = raw[0]
    params, stderr = {"s0": s0}, {"s0": math.sqrt(max(cov[0, 0], 0.0))}
    for j, key in enumerate(("s1", "s2", "s3"), start=1):
        params[key] = raw[j] / s0
        var = cov[j, j] / s0**2 + raw[j] ** 2 * cov[0, 0] / s0**4 - 2 * raw[j] * cov[0, j] / s0**3
        stderr[key] = math.sqrt(max(var, 0.0))
    return params, stderr


def test_fit_stokes_matches_per_component_reference():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(8, 41))
        angles = np.linspace(0, math.pi, n)
        angles[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * math.pi / n
        level = 10.0 ** rng.uniform(-5, 4)
        s = random_physical(rng)
        intens = [level * (qwp_polarimeter_intensity(s, a) + rng.uniform(0, 0.2)) for a in angles]
        sweep = polarimetry_sweep(angles, intens)
        _, fit = fit_stokes(sweep)
        assert (fit.params, fit.stderr) == _fit_stokes_per_component(sweep)


def test_fit_stokes_poisson_noise_within_three_sigma(base=5):
    rng = np.random.default_rng(base)
    angles = np.linspace(0, math.pi, 16)
    pulses = 10_000
    level = 0.08  # mean counts per pulse at s0
    misses = 0
    for _ in range(40):
        s = random_physical(rng, pure=True)
        scaled = StokesVector(level, *(level * s.vec3))
        intens = [
            rng.poisson(pulses * qwp_polarimeter_intensity(scaled, a)) / pulses for a in angles
        ]
        vec, fit = fit_stokes(polarimetry_sweep(angles, intens))
        for key, truth in zip(("s1", "s2", "s3"), s.vec3):
            err = fit.stderr[key]
            assert err > 0
            if abs(getattr(vec, key) - truth) > 3 * err:
                misses += 1
    # 120 component checks at 3 sigma: a couple of outliers are expected
    assert misses <= 4


def test_fit_stokes_requires_enough_samples_and_span():
    s = stokes_from_qubit(CANONICAL_STATES["H"])
    with pytest.raises(DataError):
        fit_stokes(sweep_samples(s, np.linspace(0, math.pi, 7)))
    with pytest.raises(DataError):
        fit_stokes(sweep_samples(s, np.linspace(0, 0.9 * math.pi, 12)))


def test_fit_stokes_rejects_negative_intensity():
    sweep = sweep_samples(stokes_from_qubit(CANONICAL_STATES["H"]), np.linspace(0, math.pi, 16))
    sweep.y[3] = -1e-6
    with pytest.raises(DataError, match="intensity must be >= 0"):
        fit_stokes(sweep)


def test_fit_stokes_degenerate_angles_rejected():
    s = stokes_from_qubit(CANONICAL_STATES["H"])
    angles = [0.0] * 7 + [math.pi]
    with pytest.raises(IllConditionedFitError):
        fit_stokes(sweep_samples(s, angles))


# --------------------------------------------------------------- fidelity


def test_fidelity_fixed_points():
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    v = stokes_from_qubit(CANONICAL_STATES["V"])
    d = stokes_from_qubit(CANONICAL_STATES["D"])
    unpol = StokesVector(1, 0, 0, 0)
    assert fidelity(h, h) == 1.0
    assert math.isclose(fidelity(h, v), 0.0, abs_tol=1e-15)
    assert math.isclose(fidelity(h, d), 0.5)
    assert math.isclose(fidelity(h, unpol), 0.5)
    short = StokesVector(1, 0.43, 0, 0)
    assert math.isclose(fidelity(h, short), 0.715, abs_tol=1e-12)


def test_fidelity_matches_uhlmann_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = random_physical(rng)
        b = random_physical(rng)
        assert math.isclose(
            fidelity(a, b), uhlmann_fidelity(a.vec3, b.vec3), abs_tol=1e-10
        )


def test_fidelity_symmetry_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = random_physical(rng), random_physical(rng)
        f = fidelity(a, b)
        assert math.isclose(f, fidelity(b, a), abs_tol=1e-14)
        assert -1e-12 <= f <= 1 + 1e-12


def test_fidelity_requires_normalized_inputs():
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    with pytest.raises(DataError):
        fidelity(StokesVector(2.0, 0, 0, 0), h)


def test_fidelity_tolerates_slightly_long_vector_against_pure():
    # a pure reference makes its factor of the radicand ~0, so a target
    # nudged just outside the sphere must not trip the physicality guard
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    long = StokesVector(1.0, 1.005, 0.01, 0.0)
    f = fidelity(h, long)
    assert f > 0.99


# --------------------------------------------------------------- rotation


def test_rotation_validation():
    with pytest.raises(DataError):
        Rotation3(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(DataError):
        Rotation3(2 * np.eye(3))
    assert_allclose(Rotation3.identity().matrix, np.eye(3))


def test_rotation_about_axis_matches_scipy():
    from scipy.spatial.transform import Rotation as ScipyRotation

    rng = np.random.default_rng(8)
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(-math.pi, math.pi)
        ours = Rotation3.about_axis(axis, angle).matrix
        ref = ScipyRotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()
        assert_allclose(ours, ref, atol=1e-12)


def test_apply_rotation_keeps_s0_and_length():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = random_physical(rng)
        r = Rotation3.about_axis(rng.normal(size=3), rng.uniform(0, math.pi))
        out = apply_rotation(r, s)
        assert out.s0 == s.s0
        assert math.isclose(out.dop, s.dop, abs_tol=1e-12)


def test_fit_rotation_noiseless_recovery():
    rng = np.random.default_rng(10)
    basis = [stokes_from_qubit(CANONICAL_STATES[n]) for n in STATE_NAMES]
    for _ in range(50):
        r = Rotation3.about_axis(rng.normal(size=3), rng.uniform(0, math.pi))
        targets = [apply_rotation(r, s) for s in basis]
        fitted = fit_rotation(basis, targets)
        assert_allclose(fitted.matrix, r.matrix, atol=1e-9)


def test_fit_rotation_handles_shortened_targets():
    # uniformly shortened targets (background dilution) leave the best
    # rotation unchanged
    rng = np.random.default_rng(11)
    basis = [stokes_from_qubit(CANONICAL_STATES[n]) for n in STATE_NAMES]
    r = Rotation3.about_axis([1.0, 2.0, 0.5], 0.7)
    targets = [
        StokesVector(1.0, *(0.57 * apply_rotation(r, s).vec3)) for s in basis
    ]
    fitted = fit_rotation(basis, targets)
    assert_allclose(fitted.matrix, r.matrix, atol=1e-9)


def test_fit_rotation_never_returns_reflection():
    basis = [stokes_from_qubit(CANONICAL_STATES[n]) for n in STATE_NAMES]
    mirrored = [StokesVector(1.0, s.s1, s.s2, -s.s3) for s in basis]
    fitted = fit_rotation(basis, mirrored)
    assert math.isclose(np.linalg.det(fitted.matrix), 1.0, abs_tol=1e-9)


def test_fit_rotation_degenerate_inputs():
    h = stokes_from_qubit(CANONICAL_STATES["H"])
    v = stokes_from_qubit(CANONICAL_STATES["V"])
    with pytest.raises(DegenerateGeometryError):
        fit_rotation([h, v, h], [h, v, h])
    with pytest.raises(DataError):
        fit_rotation([h, v], [h, v])
    with pytest.raises(DataError, match="equal length"):
        fit_rotation([h, v, h], [h, v])


# -------------------------------------------------------------- CSV round trip


def test_polarimetry_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    angles = np.linspace(0, math.pi, 16)
    sweep = SweepSeries(angles, rng.random(16), rng.random(16))
    path = tmp_path / "sweep.csv"
    write_polarimetry_csv(path, sweep)
    back = read_polarimetry_csv(path)
    assert len(back) == len(sweep)
    for orig_a, orig_i, rec_a, rec_i in zip(sweep.x, sweep.y, back.x, back.y):
        assert math.isclose(orig_a, rec_a, abs_tol=1e-15)
        assert orig_i == rec_i
    assert np.array_equal(back.y_err, sweep.y_err)
    header = path.read_text().splitlines()[0]
    assert header == "qwp_angle_deg,intensity,y_err"

    # the byte format: degrees, intensities and errors as repr(float), \r\n row ends
    small = tmp_path / "small.csv"
    write_polarimetry_csv(small, SweepSeries([0.0, math.pi / 4, math.pi], [0.5, 0.25, 1e-3],
                                             [0.01, 0.0, 2e-4]))
    assert small.read_bytes() == (
        b"qwp_angle_deg,intensity,y_err\r\n"
        b"0.0,0.5,0.01\r\n45.0,0.25,0.0\r\n180.0,0.001,0.0002\r\n"
    )


def test_polarimetry_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("angle,counts\n0.0,1.0\n")
    with pytest.raises(DataError):
        read_polarimetry_csv(path)

"""Element pattern, array response, directivity and TXRU mapping tests."""

import math

import numpy as np
import pytest

from imteval.antenna import (
    ArrayConfig,
    ElementPattern,
    array_response,
    directivity,
    element_gain,
    map_txru,
    total_radiated_power,
    txru_weights,
)
from imteval.errors import DomainError, MappingError

BS_PATTERN = ElementPattern(max_gain_dbi=8.0)
UE_PATTERN = ElementPattern(max_gain_dbi=0.0, isotropic=True)


class TestElementGain:
    def test_boresight_gain_is_max(self):
        assert element_gain(BS_PATTERN, 0.0, 90.0) == pytest.approx(8.0, abs=1e-12)

    def test_isotropic_ignores_angles(self):
        for az, zen in [(0, 90), (180, 0), (-180, 180), (37, 12)]:
            assert element_gain(UE_PATTERN, az, zen) == 0.0

    def test_gain_at_half_power_beamwidth(self):
        # 12 * (65/65)^2 = 12 dB attenuation, not clipped at 30
        assert element_gain(BS_PATTERN, 65.0, 90.0) == pytest.approx(8.0 - 12.0, abs=1e-12)

    def test_angle_domain_errors(self):
        with pytest.raises(DomainError):
            element_gain(BS_PATTERN, 181.0, 90.0)
        with pytest.raises(DomainError):
            element_gain(BS_PATTERN, 0.0, -1.0)
        with pytest.raises(DomainError):
            element_gain(BS_PATTERN, 0.0, 180.5)

    @pytest.mark.parametrize("pattern", [BS_PATTERN, UE_PATTERN], ids=["parametric", "isotropic"])
    def test_exact_bounds_accepted(self, pattern):
        az = np.array([-180.0, 180.0, -180.0, 180.0])
        zen = np.array([0.0, 0.0, 180.0, 180.0])
        assert np.all(np.isfinite(element_gain(pattern, az, zen)))
        for a, z in zip(az, zen):
            assert math.isfinite(element_gain(pattern, a, z))
        assert element_gain(pattern, np.empty(0), np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("pattern", [BS_PATTERN, UE_PATTERN], ids=["parametric", "isotropic"])
    def test_nan_angle_raises(self, pattern):
        """A NaN angle is outside the domain, not a NaN gain."""
        with pytest.raises(DomainError, match="azimuth"):
            element_gain(pattern, np.array([0.0, np.nan]), 90.0)
        with pytest.raises(DomainError, match="zenith"):
            element_gain(pattern, 0.0, np.array([np.nan, 90.0]))
        with pytest.raises(DomainError, match="azimuth"):
            element_gain(pattern, np.nan, np.nan)

    def test_even_in_azimuth_and_symmetric_about_horizon(self):
        az = np.linspace(0, 180, 50)
        zen = np.linspace(0, 90, 50)
        assert np.allclose(element_gain(BS_PATTERN, az, 90.0),
                           element_gain(BS_PATTERN, -az, 90.0))
        assert np.allclose(element_gain(BS_PATTERN, 0.0, 90.0 + (90.0 - zen)),
                           element_gain(BS_PATTERN, 0.0, zen))

    def test_bounded_by_max_gain_and_front_back_floor(self):
        rng = np.random.default_rng(42)
        az = rng.uniform(-180, 180, 2000)
        zen = rng.uniform(0, 180, 2000)
        g = element_gain(BS_PATTERN, az, zen)
        assert np.all(g <= 8.0 + 1e-12)
        assert np.all(g >= 8.0 - 30.0 - 1e-12)


class TestArrayResponse:
    def test_single_element_is_unity(self):
        resp = array_response(ArrayConfig(), 12.0, 80.0)
        assert resp.shape == (1,)
        assert resp[0] == pytest.approx(1.0 + 0.0j)

    def test_broadside_on_vertical_column_is_uniform(self):
        cfg = ArrayConfig(m=8, n=1, element_spacing_v=0.8)
        resp = array_response(cfg, 0.0, 90.0)  # horizon: no z path difference
        assert np.allclose(resp, resp[0])

    def test_two_element_halfwave_row_endfire_phase(self):
        # elements along +y at 0.5 wavelength; azimuth 90 deg is endfire
        cfg = ArrayConfig(m=1, n=2, element_spacing_h=0.5)
        resp = array_response(cfg, 90.0, 90.0)
        phase_diff = np.angle(resp[1] / resp[0])
        assert abs(abs(phase_diff) - np.pi) < 1e-9

    def test_unit_modulus(self):
        cfg = ArrayConfig(m=4, n=4, p=2)
        rng = np.random.default_rng(3)
        resp = array_response(cfg, rng.uniform(-180, 180, 7), rng.uniform(0, 180, 7))
        assert resp.shape == (32, 7)
        assert np.allclose(np.abs(resp), 1.0)


def _oracle_directivity_db(pattern, n_elem_v=1, spacing_v=0.8, n_zen=720, n_az=1440):
    """Independent quadrature: trapezoid rule on a node grid (the
    implementation uses a midpoint grid, so agreement is non-trivial)."""
    zen = np.linspace(0.0, 180.0, n_zen + 1)
    az = np.linspace(-180.0, 180.0, n_az + 1)
    zz, aa = np.meshgrid(zen, az, indexing="ij")
    if pattern.isotropic:
        elem = np.full(zz.shape, 10.0 ** (pattern.max_gain_dbi / 10.0))
    else:
        a_h = np.minimum(12.0 * (aa / pattern.h_3db_deg) ** 2, pattern.front_back_db)
        a_v = np.minimum(12.0 * ((zz - 90.0) / pattern.v_3db_deg) ** 2, pattern.sidelobe_db)
        elem = 10.0 ** ((pattern.max_gain_dbi - np.minimum(a_h + a_v, pattern.front_back_db)) / 10.0)
    kz = np.cos(np.radians(zz))
    mrange = np.arange(n_elem_v).reshape(-1, 1, 1)
    af = np.abs(np.sum(np.exp(1j * 2 * np.pi * spacing_v * mrange * kz), axis=0)) ** 2 / n_elem_v
    u = elem * af
    integrand = u * np.sin(np.radians(zz))
    total = np.trapezoid(np.trapezoid(integrand, np.radians(az), axis=1), np.radians(zen))
    return 10.0 * np.log10(4.0 * np.pi * u.max() / total)


class TestDirectivity:
    def test_isotropic_single_element_is_zero_dbi(self):
        d = directivity(ArrayConfig(), UE_PATTERN, grid_resolution_deg=1.0)
        assert abs(d) < 0.05

    def test_single_parametric_element_matches_quadrature_oracle(self):
        # The 65/65-degree pattern integrates to ~9.8 dB peak-over-average;
        # the nominal 8 dBi element gain is a stated constant, not the
        # integral, so the oracle value is what the implementation must hit.
        oracle = _oracle_directivity_db(BS_PATTERN)
        d = directivity(ArrayConfig(), BS_PATTERN, grid_resolution_deg=0.5)
        assert d == pytest.approx(oracle, abs=0.1)
        assert d == pytest.approx(9.83, abs=0.1)

    def test_doubling_halfwave_broadside_column_adds_3db(self):
        iso = ElementPattern(max_gain_dbi=0.0, isotropic=True)
        d4 = directivity(ArrayConfig(m=4, n=1, element_spacing_v=0.5), iso, 0.25)
        d8 = directivity(ArrayConfig(m=8, n=1, element_spacing_v=0.5), iso, 0.25)
        assert d8 - d4 == pytest.approx(3.0103, abs=0.5)
        oracle4 = _oracle_directivity_db(iso, n_elem_v=4, spacing_v=0.5)
        oracle8 = _oracle_directivity_db(iso, n_elem_v=8, spacing_v=0.5)
        assert d4 == pytest.approx(oracle4, abs=0.1)
        assert d8 == pytest.approx(oracle8, abs=0.1)

    def test_radiated_power_stable_under_grid_refinement(self):
        coarse = total_radiated_power(ArrayConfig(), BS_PATTERN, 1.0)
        fine = total_radiated_power(ArrayConfig(), BS_PATTERN, 0.5)
        assert abs(coarse - fine) / fine < 0.01

    def test_grid_must_divide_180(self):
        with pytest.raises(DomainError):
            directivity(ArrayConfig(), BS_PATTERN, grid_resolution_deg=0.7)


class TestTxruMapping:
    def test_identity_mapping_when_ports_equal_elements(self):
        cfg = ArrayConfig(m=2, n=2, mp=2, np=2)
        w = txru_weights(cfg)
        assert w.shape == (4, 4)
        assert np.allclose(np.abs(w) > 0, np.eye(4, dtype=bool))

    def test_vertical_subarray_span(self):
        cfg = ArrayConfig(m=8, n=16, p=2, mp=2, np=8)
        w = txru_weights(cfg)
        assert w.shape == (cfg.n_elements, cfg.n_ports)
        # each port drives m/mp = 4 rows of n/np = 2 columns of one polarization
        driven = np.count_nonzero(w[:, 0])
        assert driven == 8
        rows = {(i // 2 // 16) for i in np.flatnonzero(w[:, 0])}
        assert rows == {0, 1, 2, 3}

    def test_port_columns_are_unit_power(self):
        for cfg in (ArrayConfig(m=8, n=16, p=2, mp=2, np=8),
                    ArrayConfig(m=4, n=4, p=2, mp=4, np=4),
                    ArrayConfig(m=16, n=16, mp=4, np=4, downtilt_deg=10.0)):
            w = txru_weights(cfg)
            power = np.sum(np.abs(w) ** 2, axis=0)
            assert np.allclose(power, 1.0, atol=1e-12)

    def test_non_divisible_mapping_rejected(self):
        with pytest.raises(MappingError):
            txru_weights(ArrayConfig(m=5, n=4, mp=2, np=4))

    def test_map_txru_applies_weights(self):
        cfg = ArrayConfig(m=4, n=1, mp=2, np=1)
        signal = np.array([1.0 + 0j, 0.0 + 0j])
        elems = map_txru(cfg, signal)
        assert elems.shape == (4,)
        assert np.allclose(np.abs(elems[:2]), 1.0 / np.sqrt(2.0))
        assert np.allclose(elems[2:], 0.0)
        with pytest.raises(MappingError):
            map_txru(cfg, np.ones(3, dtype=complex))


# The per-element loops that ArrayConfig.element_index replaced, kept verbatim
# as references for the element order: positions, slants and TXRU weights
# must stay bitwise equal to them.
def element_positions_wl_reference(self) -> np.ndarray:
    dv, dh = self.element_spacing_v, self.element_spacing_h
    pos = np.zeros((self.n_elements, 3))
    idx = 0
    for g_v in range(self.mg):
        for g_h in range(self.ng):
            for row in range(self.m):
                for col in range(self.n):
                    y = (g_h * self.n + col) * dh
                    z = (g_v * self.m + row) * dv
                    for _ in range(self.p):
                        pos[idx, 1] = y
                        pos[idx, 2] = z
                        idx += 1
    return pos


def polarization_slants_deg_reference(self) -> np.ndarray:
    slants = np.zeros(self.n_elements)
    if self.p == 2:
        slants[0::2] = 45.0
        slants[1::2] = -45.0
    return slants


def txru_weights_reference(config: ArrayConfig) -> np.ndarray:
    if config.m % config.mp != 0 or config.n % config.np != 0:
        raise MappingError(
            f"({config.mp}, {config.np}) ports do not divide ({config.m}, {config.n}) elements"
        )
    rows_per_port = config.m // config.mp
    cols_per_port = config.n // config.np
    k = rows_per_port * cols_per_port
    w = np.zeros((config.n_elements, config.n_ports), dtype=complex)

    tilt = np.radians(config.downtilt_deg)
    dv = config.element_spacing_v
    # progressive phase down the rows of the subarray
    sub_phase = np.exp(-1j * 2.0 * np.pi * dv * np.arange(rows_per_port) * np.sin(tilt))

    elems_per_panel = config.m * config.n * config.p
    ports_per_panel = config.mp * config.np * config.p
    for panel in range(config.mg * config.ng):
        for pm in range(config.mp):
            for pn in range(config.np):
                for pol in range(config.p):
                    port = panel * ports_per_panel + (pm * config.np + pn) * config.p + pol
                    for r in range(rows_per_port):
                        row = pm * rows_per_port + r
                        for c in range(cols_per_port):
                            col = pn * cols_per_port + c
                            elem = panel * elems_per_panel + (row * config.n + col) * config.p + pol
                            w[elem, port] = sub_phase[r] / np.sqrt(k)
    return w


class TestElementOrder:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("p", [1, 2])
    def test_equals_the_loop_references(self, m, n, p):
        for mg in (1, 2):
            for ng in (1, 3):
                for mp in range(1, m + 1):
                    for n_p in range(1, n + 1):
                        cfg = ArrayConfig(m=m, n=n, p=p, mg=mg, ng=ng, mp=mp, np=n_p,
                                          element_spacing_h=0.37, element_spacing_v=0.81,
                                          downtilt_deg=7.3)
                        assert cfg.element_positions_wl().tobytes() == \
                            element_positions_wl_reference(cfg).tobytes()
                        assert cfg.polarization_slants_deg().tobytes() == \
                            polarization_slants_deg_reference(cfg).tobytes()
                        if m % mp or n % n_p:
                            with pytest.raises(MappingError):
                                txru_weights(cfg)
                            with pytest.raises(MappingError):
                                txru_weights_reference(cfg)
                            continue
                        assert txru_weights(cfg).tobytes() == txru_weights_reference(cfg).tobytes()

    def test_index_follows_the_documented_order(self):
        cfg = ArrayConfig(m=3, n=2, p=2, mg=2, ng=3)
        index = cfg.element_index()
        assert index.min() == 0 and list(index.max(axis=1)) == [1, 2, 2, 1, 1]
        g_v, g_h, row, col, pol = index
        # polarization fastest, then column, row, panel column, panel row
        flat = (((g_v * cfg.ng + g_h) * cfg.m + row) * cfg.n + col) * cfg.p + pol
        assert np.array_equal(flat, np.arange(cfg.n_elements))

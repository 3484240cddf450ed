"""Element pattern, array response and element order tests."""

import math

import numpy as np
import pytest

from imteval import antenna
from imteval.antenna import (
    ArrayConfig,
    ElementPattern,
    array_response,
    combined_gain,
    element_gain,
    vertical_attenuation,
)
from imteval.errors import DomainError

BS_PATTERN = ElementPattern(max_gain_dbi=8.0)
# 0 dB caps: 0 dBi at every angle, the stand-in for an isotropic element
FLAT_PATTERN = ElementPattern(max_gain_dbi=0.0, front_back_db=0.0, sidelobe_db=0.0)


def element_gain_reference(pattern, azimuth_deg, zenith_deg, out=None):
    """Oracle for element_gain: its one-piece form, before the vertical cut
    became a step of its own."""
    az = np.asarray(azimuth_deg, dtype=float)
    zen = np.asarray(zenith_deg, dtype=float)
    if az.size and not (-180.0 <= az.min() and az.max() <= 180.0):
        raise DomainError(f"azimuth out of [-180, 180]: {azimuth_deg}")
    if zen.size and not (0.0 <= zen.min() and zen.max() <= 180.0):
        raise DomainError(f"zenith out of [0, 180]: {zenith_deg}")
    if out is None:
        out = np.empty(np.broadcast(az, zen).shape)
    vertical = np.subtract(zen, 90.0, out=np.empty(zen.shape))
    np.minimum(12.0 * np.square(vertical / pattern.v_3db_deg), pattern.sidelobe_db, out=vertical)
    att = np.divide(az, pattern.h_3db_deg, out=out)
    np.square(att, out=att)
    np.multiply(att, 12.0, out=att)
    np.minimum(att, pattern.front_back_db, out=att)
    att += vertical
    np.minimum(att, pattern.front_back_db, out=att)
    np.subtract(pattern.max_gain_dbi, att, out=out)
    return out if out.ndim else float(out)


_PATTERNS = [BS_PATTERN, FLAT_PATTERN,
             ElementPattern(max_gain_dbi=5.0, h_3db_deg=90.0, v_3db_deg=40.0,
                            front_back_db=25.0, sidelobe_db=20.0)]


class TestComposedElementGain:
    """element_gain is vertical_attenuation then combined_gain: the bits and
    the errors of its one-piece form."""

    @pytest.mark.parametrize("pattern", _PATTERNS, ids=["bs", "flat", "narrow"])
    def test_equals_one_piece_form(self, pattern):
        rng = np.random.default_rng(7)
        az = np.concatenate([[-180.0, 180.0, 0.0, 65.0], rng.uniform(-180, 180, 3996)])
        zen = np.concatenate([[0.0, 180.0, 90.0, 102.5], rng.uniform(0, 180, 3996)])
        want = element_gain_reference(pattern, az, zen)
        assert np.array_equal(element_gain(pattern, az, zen), want)
        plane_az, plane_zen = az.reshape(8, -1), zen.reshape(8, -1)
        assert np.array_equal(element_gain(pattern, plane_az, plane_zen[:1]),
                              element_gain_reference(pattern, plane_az, plane_zen[:1]))
        for a, z in zip(az[:50], zen[:50]):
            got = element_gain(pattern, a, z)
            assert type(got) is float and got == element_gain_reference(pattern, a, z)
        # out may be either angle array
        for alias in ("az", "zen"):
            a, z = az.copy(), zen.copy()
            got = element_gain(pattern, a, z, out=a if alias == "az" else z)
            assert np.array_equal(got, want), alias
        # the two steps on their own, with the cut taken in place
        z = zen.copy()
        vertical = vertical_attenuation(pattern, z, out=z)
        assert vertical is z
        assert np.array_equal(combined_gain(pattern, az, vertical), want)

    @pytest.mark.parametrize("pattern", _PATTERNS, ids=["bs", "flat", "narrow"])
    @pytest.mark.parametrize("az, zen", [
        (np.nan, 90.0), (0.0, np.nan), (np.nan, np.nan), (181.0, np.nan),
        (np.array([0.0, np.nan]), np.array([-1.0, 90.0])), (-180.5, 181.0), (0.0, -0.5),
    ])
    def test_raises_as_one_piece_form(self, pattern, az, zen):
        with pytest.raises(DomainError) as want:
            element_gain_reference(pattern, az, zen)
        with pytest.raises(DomainError) as got:
            element_gain(pattern, az, zen)
        assert str(got.value) == str(want.value)

    def test_checks_each_angle_once(self, monkeypatch):
        checked = []
        check = antenna._check_range

        def counting_check(angle, lo, hi, name):
            checked.append(name)
            return check(angle, lo, hi, name)

        monkeypatch.setattr(antenna, "_check_range", counting_check)
        element_gain(BS_PATTERN, np.zeros(3), np.full(3, 90.0))
        assert checked == ["azimuth", "zenith"]

    def test_steps_check_their_own_angle(self):
        with pytest.raises(DomainError, match="zenith"):
            vertical_attenuation(BS_PATTERN, np.array([90.0, np.nan]))
        with pytest.raises(DomainError, match="azimuth"):
            combined_gain(BS_PATTERN, np.array([0.0, 180.5]), np.zeros(2))


class TestElementGain:
    def test_boresight_gain_is_max(self):
        assert element_gain(BS_PATTERN, 0.0, 90.0) == pytest.approx(8.0, abs=1e-12)

    def test_flat_pattern_ignores_angles(self):
        for az, zen in [(0, 90), (180, 0), (-180, 180), (37, 12)]:
            assert element_gain(FLAT_PATTERN, az, zen) == 0.0

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

    @pytest.mark.parametrize("pattern", [BS_PATTERN, FLAT_PATTERN], ids=["parametric", "flat"])
    def test_exact_bounds_accepted(self, pattern):
        az = np.array([-180.0, 180.0, -180.0, 180.0])
        zen = np.array([0.0, 0.0, 180.0, 180.0])
        assert np.all(np.isfinite(element_gain(pattern, az, zen)))
        for a, z in zip(az, zen):
            assert math.isfinite(element_gain(pattern, a, z))
        assert element_gain(pattern, np.empty(0), np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("pattern", [BS_PATTERN, FLAT_PATTERN], ids=["parametric", "flat"])
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


# The per-element loops that ArrayConfig.element_index replaced, kept verbatim
# as references for the element order: positions and slants must stay bitwise
# equal to them.
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


class TestElementOrder:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("p", [1, 2])
    def test_equals_the_loop_references(self, m, n, p):
        for mg in (1, 2):
            for ng in (1, 3):
                cfg = ArrayConfig(m=m, n=n, p=p, mg=mg, ng=ng,
                                  element_spacing_h=0.37, element_spacing_v=0.81,
                                  downtilt_deg=7.3)
                assert cfg.element_positions_wl().tobytes() == \
                    element_positions_wl_reference(cfg).tobytes()
                assert cfg.polarization_slants_deg().tobytes() == \
                    polarization_slants_deg_reference(cfg).tobytes()

    def test_index_follows_the_documented_order(self):
        cfg = ArrayConfig(m=3, n=2, p=2, mg=2, ng=3)
        index = cfg.element_index()
        assert index.min() == 0 and list(index.max(axis=1)) == [1, 2, 2, 1, 1]
        g_v, g_h, row, col, pol = index
        # polarization fastest, then column, row, panel column, panel row
        flat = (((g_v * cfg.ng + g_h) * cfg.m + row) * cfg.n + col) * cfg.p + pol
        assert np.array_equal(flat, np.arange(cfg.n_elements))
